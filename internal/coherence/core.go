package coherence

import (
	"fmt"
	"strings"

	"dirsim/internal/bitset"
	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/cache"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// engineCore is the bookkeeping every engine family shares; each family
// embeds it and adds only its protocol-specific state and read/write
// transitions. Section 5's observation that protocols sharing a
// state-change model differ only in per-event costs is why three
// registry families (DirEngine, SnoopyInval and Dragon) cover all the
// schemes, and this core is what they and the NUMA engine have in
// common: the name and machine configuration, the tallies, the block-id
// table, the per-block state, the finite-cache replacers with the one
// eviction path, and the per-reference transaction flag and
// classification.
//
// A family's AccessID is begin, an early return for instruction fetches,
// the family's read or write, then end; begin and end inline into it.
type engineCore struct {
	name      string
	cfg       Config
	stats     Stats
	tab       *blockid.Table
	replacers []*cache.SetAssoc

	// state is the ground truth every family keeps and every Inspector
	// key starts from.
	state blockStates

	// probes is the number of directory accesses one lookup costs: 1,
	// except for Tang's duplicate-directory search over n tag stores.
	probes int
	// writeThrough marks caches whose written words already reach
	// memory, so an evicted written block needs no write-back.
	writeThrough bool

	// txn tracks whether the reference being processed has used the bus.
	txn bool
	// last is the classification of the reference being processed.
	last events.Type
}

// newCore validates cfg and builds the shared state for an engine named
// name: a private block-id table, empty until the first address-keyed
// Access interns into it (BindBlocks usually replaces it before then),
// and, for finite caches, the per-cache replacers.
func newCore(name string, cfg Config) (engineCore, error) {
	if err := cfg.Validate(); err != nil {
		return engineCore{}, err
	}
	repl, err := cfg.newReplacers()
	if err != nil {
		return engineCore{}, err
	}
	return engineCore{name: name, cfg: cfg, tab: blockid.New(), replacers: repl, probes: 1}, nil
}

// Name implements Engine.
func (k *engineCore) Name() string { return k.name }

// Caches implements Engine.
func (k *engineCore) Caches() int { return k.cfg.Caches }

// Stats implements Engine.
func (k *engineCore) Stats() *Stats { return &k.stats }

// ResetStats implements Engine: tallies are zeroed, protocol state kept.
func (k *engineCore) ResetStats() { k.stats = Stats{} }

// AccessInstrs implements IndexedEngine: n coalesced instruction fetches.
func (k *engineCore) AccessInstrs(n uint64) {
	k.stats.Refs += n
	k.stats.Events.Add(events.Instr, n)
}

// BindBlocks implements IndexedEngine.
func (k *engineCore) BindBlocks(t *blockid.Table) bool {
	if k.tab.Len() > 0 {
		return false
	}
	k.tab = t
	return true
}

// intern is the block lookup Access does before delegating to AccessID.
// Instruction fetches touch no per-block state and are not interned.
func (k *engineCore) intern(kind trace.Kind, block uint64) blockid.ID {
	var id blockid.ID
	if kind != trace.Instr {
		id, _ = k.tab.Intern(block)
	}
	return id
}

// event records the reference's Table 4 classification.
func (k *engineCore) event(t events.Type) {
	k.stats.Events.Inc(t)
	k.last = t
}

// emit records a bus operation. Directory checks cost probes directory
// accesses, and block transfers to or from main memory count as memory
// accesses. Anything other than an overlapped directory check marks the
// reference as a bus transaction.
func (k *engineCore) emit(op bus.Op) {
	k.stats.Ops.Inc(op)
	switch op {
	case bus.OpDirCheckOverlapped:
		k.stats.DirAccesses += uint64(k.probes)
		return
	case bus.OpDirCheck:
		k.stats.DirAccesses += uint64(k.probes)
	case bus.OpMemRead, bus.OpWriteBack, bus.OpWriteThrough:
		k.stats.MemAccesses++
	}
	k.txn = true
}

// begin opens one reference from cache c: it checks the cache id, counts
// the reference and clears the transaction flag. It stays small enough to
// inline into every AccessID; the panic is outlined for that reason.
func (k *engineCore) begin(c int) {
	if uint(c) >= uint(k.cfg.Caches) {
		k.badCache(c)
	}
	k.stats.Refs++
	k.txn = false
}

// badCache reports a cache id outside [0,Caches).
//
//go:noinline
func (k *engineCore) badCache(c int) {
	panic(fmt.Sprintf("coherence: cache id %d out of range [0,%d)", c, k.cfg.Caches))
}

// end closes a data reference from cache c: it counts the bus transaction,
// if any, and attributes the classification to c. It sits exactly at the
// inlining budget; returning last from it instead of from AccessID
// would push it over.
func (k *engineCore) end(c int) {
	if k.txn {
		k.stats.Transactions++
	}
	k.stats.recordPerCache(c, k.cfg.Caches, k.last)
}

// touch refreshes c's replacement recency for the block in finite mode.
func (k *engineCore) touch(c int, id blockid.ID) {
	if k.replacers != nil {
		k.replacers[c].Touch(id)
	}
}

// removeFromReplacer forgets c's copy of the block in finite mode.
func (k *engineCore) removeFromReplacer(c int, id blockid.ID) {
	if k.replacers != nil {
		k.replacers[c].Remove(id)
	}
}

// insert records, in finite mode, that cache c now holds the block, and
// evicts the victim c's replacer displaces for it. It returns the victim
// when c held a copy of it, for the directory's replacement hint. It
// stays small enough to inline, so infinite caches pay no call; the
// finite-cache work is outlined in evict.
func (k *engineCore) insert(c int, block uint64, id blockid.ID) (victim blockid.ID, dropped bool) {
	if k.replacers == nil {
		return 0, false
	}
	return k.evict(c, block, id)
}

// evict is insert's finite-cache path. The victim loses c's copy and,
// when that copy was the one memory lacks, is written back (copy-back)
// or merely marked current (write-through). c's copy is the one memory
// lacks when c owns the written block, or when c held the last copy of a
// block no single cache owns (an update protocol's).
func (k *engineCore) evict(c int, block uint64, id blockid.ID) (victim blockid.ID, dropped bool) {
	victim, evicted := k.replacers[c].Insert(block, id)
	if !evicted {
		return 0, false
	}
	k.stats.Evictions++
	k.state.ensure(victim)
	st := &k.state
	if st.sharers[victim].Empty() {
		return 0, false
	}
	st.sharers[victim].Remove(c)
	st.used(victim, c)
	if st.dirty[victim] && (int(st.owner[victim]) == c || st.sharers[victim].Empty()) {
		if !k.writeThrough {
			k.emit(bus.OpWriteBack)
			k.stats.EvictionWriteBacks++
		}
		st.dirty[victim] = false
		st.owner[victim] = -1
	}
	return victim, true
}

// keepOnly drops every copy in the block's sharer set sh except cache
// c's, which stays only if c held one.
func (k *engineCore) keepOnly(sh *bitset.Set, id blockid.ID, c int) {
	for h := sh.Next(0); h >= 0; h = sh.Next(h + 1) {
		if h != c {
			k.removeFromReplacer(h, id)
		}
	}
	keep := sh.Contains(c)
	sh.Clear()
	if keep {
		sh.Add(c)
	}
}

// grow returns s extended to n elements, the new ones zero; s itself when
// it is already that long. The callers' ensure methods ask for at least
// double the old length, so growth amortizes to O(1) per reference; the
// length guard stays here, not only in the callers, because it keeps the
// make in the guarded shape the enginepurity rule admits.
func grow[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	out := make([]T, n)
	copy(out, s)
	return out
}

// blockStates is the per-block state of every engine, held as
// struct-of-arrays indexed by dense block id. The ground truth is the set
// of caches holding a copy of each block, whether the block is in the
// protocol's written state (memory stale under copy-back; the virtual
// written state under write-through), and the owner responsible for it.
// Update protocols have no single owner and leave owner at -1. Slots are
// never deleted — a block with no holders is an empty sharer set, which
// encodes and behaves identically to the absent entry of the map-keyed
// representation this replaced (every path that drops the last holder
// clears dirty, and stale owner values are unobservable: owner is only
// consulted while the block is dirty, and every transition into the dirty
// state rewrites it).
//
// Two features keep per-block extras beside the ground truth, grown with
// it only for the engines that use them: read broadcast's snarfer sets
// and competitive update's absorbed-update counters.
type blockStates struct {
	sharers []bitset.Set
	dirty   []bool
	owner   []int32 // valid when dirty; -1 when no single cache owns it

	// snarf marks read broadcast: snarfers holds the caches whose
	// invalidated copies wait to refill off the block's next bus read.
	// A cache is never both a holder and a snarfer.
	snarf    bool
	snarfers []bitset.Set
	// stride is the cache count under a competitive-update threshold, 0
	// otherwise: unused then counts each holder's updates absorbed since
	// its last local access, as a flattened [id × stride] matrix. A
	// non-holder's counter is always zero (the map representation this
	// replaced deleted the entry instead).
	stride int
	unused []int32
}

// ensure grows the arrays to cover id. It stays small enough to inline on
// every reference; the growth itself is outlined in growTo.
func (t *blockStates) ensure(id blockid.ID) {
	if int(id) >= len(t.sharers) {
		t.growTo(id)
	}
}

// growTo is ensure's slow path: the ground truth, then whichever extras
// the engine keeps. Growth at least doubles, so the per-reference cost
// amortizes to O(1) and the steady state allocates nothing.
func (t *blockStates) growTo(id blockid.ID) {
	n := int(id) + 1 + len(t.sharers)
	old := len(t.owner)
	t.sharers, t.dirty, t.owner = grow(t.sharers, n), grow(t.dirty, n), grow(t.owner, n)
	for i := old; i < n; i++ {
		t.owner[i] = -1
	}
	if t.snarf {
		t.snarfers = grow(t.snarfers, n)
	}
	if t.stride > 0 {
		t.unused = grow(t.unused, n*t.stride)
	}
}

// used zeroes cache c's count of updates absorbed for the block, when
// counters are kept: its processor touched the block, or its copy came or
// went.
func (t *blockStates) used(id blockid.ID, c int) {
	if t.stride > 0 {
		t.unused[int(id)*t.stride+c] = 0
	}
}

// live reports whether the block has any holder. ok is the caller's
// table-lookup result; an interned id can lie beyond the arrays when the
// table is shared with other engines.
func (t *blockStates) live(id blockid.ID, ok bool) bool {
	return ok && int(id) < len(t.sharers) && !t.sharers[id].Empty()
}

// appendKey writes the canonical encoding of one block's state: "-" for a
// block with neither holders nor snarfers, else the holder set, then "!"
// in the written state, followed by the owner when one cache owns the
// block. Then come "s" and the snarfer set when caches wait to snarf, and
// "u<cache>=<count>" for each holder's counter when counters are kept (a
// counter exists exactly for the holders, so iterating the sharer set
// ascending matches the sorted-key order the map representation printed).
func (t *blockStates) appendKey(b *strings.Builder, id blockid.ID, ok bool) {
	waiting := ok && int(id) < len(t.snarfers) && !t.snarfers[id].Empty()
	if !t.live(id, ok) && !waiting {
		b.WriteString("-")
		return
	}
	sh := &t.sharers[id]
	b.WriteString(sh.String())
	if t.dirty[id] {
		b.WriteString("!")
		if t.owner[id] >= 0 {
			fmt.Fprintf(b, "%d", t.owner[id])
		}
	}
	if waiting {
		b.WriteString("s")
		b.WriteString(t.snarfers[id].String())
	}
	if t.stride > 0 {
		base := int(id) * t.stride
		for h := sh.Next(0); h >= 0; h = sh.Next(h + 1) {
			fmt.Fprintf(b, "u%d=%d", h, t.unused[base+h])
		}
	}
}

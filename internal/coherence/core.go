package coherence

import (
	"fmt"

	"dirsim/internal/bitset"
	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/cache"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// engineCore is the bookkeeping every engine family shares; each family
// embeds it and adds only its protocol state and read/write transitions.
// Section 5's observation that protocols sharing a state-change model
// differ only in per-event costs is why six families cover all the
// schemes, and this core is what the six have in common: the name and
// machine configuration, the tallies, the block-id table, the finite-cache
// replacers, and the per-reference transaction flag and classification.
//
// A family's AccessID is begin, an early return for instruction fetches,
// the family's read or write, then end; begin and end inline into it.
type engineCore struct {
	name      string
	cfg       Config
	stats     Stats
	tab       *blockid.Table
	replacers []cache.Replacer

	// probes is the number of directory accesses one lookup costs: 1,
	// except for Tang's duplicate-directory search over n tag stores.
	probes int

	// txn tracks whether the reference being processed has used the bus.
	txn bool
	// last is the classification of the reference being processed.
	last events.Type
}

// newCore validates cfg and builds the shared state for an engine named
// name: a private block-id table and, for finite caches, the per-cache
// replacers.
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

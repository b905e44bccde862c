// Package coherence implements the cache-consistency protocol engines the
// paper evaluates: the directory family Dir_i{B,NB} of Section 2's
// classification (Dir1NB, Dir_iNB, Dir_nNB, Dir0B, Dir_iB, Tang, and the
// Section 6 coded-set variant), and the snoopy protocols used for
// comparison — Write-Through-With-Invalidate and Dragon — plus the
// Berkeley Ownership cost model derived in Section 5. Beyond the paper it
// adds the snoopy protocols MESI, MOESI, Write-Once, Firefly, competitive
// update (Dragon with a self-invalidation threshold, NewCompetitive) and
// Rudolph–Segall read broadcast (NewReadBroadcast).
//
// Three engine families run them all, one per state-change model:
// DirEngine for the directories (and Berkeley, which wraps Dir0B),
// SnoopyInval for the snoopy invalidation protocols, where MOESI's Owned
// state and read broadcast's snarfing are two features of the one engine,
// and Dragon for the update protocols. Each embeds one shared core that
// holds the per-block state and the one finite-cache eviction path.
//
// An engine consumes one classified memory reference at a time and
// maintains two things:
//
//   - the ground-truth sharing state of every block (which caches hold a
//     copy, and whether memory is stale), which determines the Table 4
//     event classification; and
//   - the protocol's bus-operation stream (fetches, write-backs,
//     invalidations, directory checks), which the cost models in
//     internal/bus price into bus cycles per reference.
//
// Keeping both lets the simulator reproduce the paper's methodology
// (event frequencies × per-event costs) and cross-check it against direct
// message-level accounting — the two must agree exactly. The same split
// lets a driver price an engine from another engine's Stats instead of
// simulating it, where Section 5's shared state-change models make that
// exact (PricedFrom, Price).
package coherence

import (
	"fmt"

	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/cache"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// Engine is a cache-consistency protocol simulated over a reference stream.
//
// Access processes one data or instruction reference issued by cacheID for
// the given block. first marks the first reference to the block anywhere in
// the trace; per Section 4 such cold misses are recorded as *-first-ref
// events and priced at zero, since they occur in a uniprocessor infinite
// cache as well.
type Engine interface {
	// Name returns the paper's name for the scheme ("Dir1NB", "WTI", …).
	Name() string
	// Caches returns the number of caches simulated.
	Caches() int
	// Access processes one reference and returns its Table 4
	// classification under this protocol's state-change model.
	Access(cacheID int, kind trace.Kind, block uint64, first bool) events.Type
	// Stats exposes the tallies accumulated so far.
	Stats() *Stats
	// ResetStats zeroes the tallies while keeping all protocol state —
	// used to discard a warm-up prefix of the trace.
	ResetStats()
	// CheckInvariants verifies internal consistency (protocol state vs
	// directory contents); it is meant for tests and returns the first
	// violation found.
	CheckInvariants() error
}

// IndexedEngine is implemented by engines whose per-block state is indexed
// by dense block ids (internal/blockid) rather than hashed by raw block
// address. A driver that interns each decoded reference once can hand every
// engine the id directly, collapsing the per-engine hash probe Access pays
// into a slice index. Every engine NewByName constructs implements it.
type IndexedEngine interface {
	Engine
	// BindBlocks makes the engine resolve ids against t — the caller's
	// interning table — instead of its private one. Binding is only legal
	// while the engine's own table is still empty (ids it already handed
	// out would be reinterpreted); BindBlocks reports whether the bind
	// took effect. When it returns false the caller must keep using
	// Access, which interns internally.
	BindBlocks(t *blockid.Table) bool
	// AccessID is Access for a pre-interned reference: id must be the
	// bound table's id for block. It is ignored for instruction
	// references, which touch no per-block state.
	AccessID(cacheID int, kind trace.Kind, block uint64, id blockid.ID, first bool) events.Type
	// AccessInstrs accounts n consecutive-or-interleaved instruction
	// fetches in one call. Instruction references change no protocol
	// state and contribute only commutative sums (Refs, the Instr event
	// tally), so a driver may defer and coalesce them anywhere within a
	// measurement window; the resulting Stats are identical to n
	// AccessID(…, trace.Instr, …) calls.
	AccessInstrs(n uint64)
}

// Inspector exposes an engine's protocol state to the model checker in
// internal/mc. Every engine NewByName constructs implements it.
//
// The contract mc relies on: two engines of the same scheme and
// configuration that report equal StateKeys behave identically on every
// future reference — the key is a complete, canonical encoding of the
// protocol state (ground-truth sharing state plus whatever the directory
// organisation remembers) restricted to the given blocks. Keys cover the
// paper's infinite-cache configuration; finite-cache replacement recency
// and sparse-directory entry recency are not encoded.
type Inspector interface {
	// StateKey returns the canonical encoding of the engine's state for
	// the given blocks, in the given block order. It is deterministic:
	// replaying the same reference sequence always yields the same key.
	StateKey(blocks []uint64) string
	// Truth reports the ground-truth sharing state of one block: the
	// caches holding a copy (ascending) and whether the block is in the
	// protocol's written state (memory considered stale under copy-back
	// semantics; the virtual written state for write-through schemes).
	Truth(block uint64) (holders []int, dirty bool)
}

// ModelAdjuster is implemented by engines whose published cost model
// differs from the generic operation pricing. The Berkeley Ownership
// estimate of Section 5 prices directory checks at zero because snooping
// caches already know whether an invalidation is needed.
type ModelAdjuster interface {
	AdjustModel(m bus.CostModel) bus.CostModel
}

// Stats accumulates everything the paper measures for one scheme.
type Stats struct {
	// Refs is the number of references processed (including
	// instructions).
	Refs uint64
	// Events tallies the Table 4 reference events.
	Events events.Counts
	// Ops tallies emitted bus operations.
	Ops bus.OpCounts
	// Transactions counts references that put at least one operation on
	// the bus; Figure 5 reports Ops cycles per transaction, and Section
	// 5.1's fixed overhead q is charged per transaction.
	Transactions uint64

	// InvalFanout is Figure 1: for every write to a previously-clean
	// block, the number of *other* caches holding a copy that must be
	// invalidated.
	InvalFanout trace.Histogram

	// InvalEvents counts references that required invalidating copies in
	// other caches. DirectedInvals and BroadcastInvals split the
	// delivery mechanism; WastedInvals counts directed messages sent to
	// caches that held no copy (coded-set supersets).
	InvalEvents     uint64
	DirectedInvals  uint64
	BroadcastInvals uint64
	WastedInvals    uint64

	// PointerEvictions counts copies invalidated by Dir_iNB stores to
	// free a pointer (the "slightly increased miss rate" trade of
	// Section 6).
	PointerEvictions uint64

	// DirAccesses counts all directory accesses, overlapped or not, for
	// the directory-vs-memory bandwidth comparison of Section 5.
	DirAccesses uint64
	// MemAccesses counts block transfers involving main memory.
	MemAccesses uint64

	// Evictions and EvictionWriteBacks count finite-cache replacements
	// (zero in the paper's infinite-cache mode).
	Evictions          uint64
	EvictionWriteBacks uint64

	// DirEntryEvictions counts sparse-directory entry replacements, each
	// of which invalidated every cached copy of the displaced block.
	DirEntryEvictions uint64

	// Snarfs counts copies refilled for free off a broadcast bus read
	// (the Rudolph–Segall read-broadcast optimisation).
	Snarfs uint64

	// PerCache breaks data references down by issuing cache, exposing
	// load imbalance (lock holders, producers and consumers see very
	// different miss streams).
	PerCache []CacheTally
}

// CacheTally summarises one cache's data references.
type CacheTally struct {
	Hits   uint64
	Misses uint64
	Writes uint64
}

// recordPerCache attributes a classified data reference to cache c in a
// machine of n caches. The slice is allocated on first use so zeroed Stats
// stay cheap.
func (s *Stats) recordPerCache(c, n int, t events.Type) {
	if s.PerCache == nil {
		s.growPerCache(n)
	}
	ct := &s.PerCache[c]
	b := t.Tally()
	ct.Hits += uint64(b & events.TallyHit)
	ct.Misses += uint64(b & events.TallyMiss >> 1)
	ct.Writes += uint64(b & events.TallyWrite >> 2)
}

// growPerCache allocates the per-cache tallies on first use, outlined so
// recordPerCache stays within the inlining budget on engine hot paths.
// The nil guard repeats here so the allocation keeps the guarded,
// amortized shape the enginepurity rule admits.
func (s *Stats) growPerCache(n int) {
	if s.PerCache == nil {
		s.PerCache = make([]CacheTally, n)
	}
}

// MissImbalance returns the ratio of the busiest cache's misses to the
// mean across caches (1 = perfectly balanced, 0 if nothing recorded).
func (s *Stats) MissImbalance() float64 {
	if len(s.PerCache) == 0 {
		return 0
	}
	var total, max uint64
	for _, ct := range s.PerCache {
		total += ct.Misses
		if ct.Misses > max {
			max = ct.Misses
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(s.PerCache))
	return float64(max) / mean
}

// CyclesPerRef prices the accumulated operations under m, per reference.
func (s *Stats) CyclesPerRef(m bus.CostModel) float64 {
	if s.Refs == 0 {
		return 0
	}
	return m.Cycles(s.Ops) / float64(s.Refs)
}

// CyclesPerRefWithOverhead adds Section 5.1's fixed per-transaction
// overhead of q bus cycles: cycles(q) = cycles + q·transactions.
func (s *Stats) CyclesPerRefWithOverhead(m bus.CostModel, q float64) float64 {
	if s.Refs == 0 {
		return 0
	}
	return (m.Cycles(s.Ops) + q*float64(s.Transactions)) / float64(s.Refs)
}

// CyclesPerTransaction is Figure 5's metric.
func (s *Stats) CyclesPerTransaction(m bus.CostModel) float64 {
	if s.Transactions == 0 {
		return 0
	}
	return m.Cycles(s.Ops) / float64(s.Transactions)
}

// Config carries the machine parameters common to all engines.
type Config struct {
	// Caches is the number of processor caches (the paper's traces have
	// four).
	Caches int
	// FiniteSets and FiniteWays, when both positive, give every cache a
	// finite set-associative geometry; otherwise caches are infinite,
	// the paper's default.
	FiniteSets, FiniteWays int
	// DirEntries, when positive, bounds the directory to that many
	// simultaneously tracked blocks (a sparse directory). Tracking a new
	// block may evict another entry, which forces every cached copy of
	// the evicted block to be invalidated (and written back if dirty) so
	// the directory never loses information it still needs. Zero keeps
	// the paper's memory-resident directory (one entry per memory
	// block). Only directory engines honour it; snoopy engines have no
	// directory.
	DirEntries int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Caches < 1 || c.Caches > 1<<20 {
		return fmt.Errorf("coherence: cache count %d out of range", c.Caches)
	}
	if (c.FiniteSets > 0) != (c.FiniteWays > 0) {
		return fmt.Errorf("coherence: FiniteSets and FiniteWays must be set together")
	}
	if c.FiniteSets > 0 && !trace.IsPow2(c.FiniteSets) {
		return fmt.Errorf("coherence: FiniteSets = %d must be a power of two", c.FiniteSets)
	}
	if c.DirEntries < 0 {
		return fmt.Errorf("coherence: negative DirEntries %d", c.DirEntries)
	}
	return nil
}

// Finite reports whether the configuration uses finite caches.
func (c Config) Finite() bool { return c.FiniteSets > 0 && c.FiniteWays > 0 }

// newReplacers builds per-cache replacement trackers, or nil in infinite
// mode (membership is already tracked by the ground-truth sharer sets).
func (c Config) newReplacers() ([]*cache.SetAssoc, error) {
	if !c.Finite() {
		return nil, nil
	}
	out := make([]*cache.SetAssoc, c.Caches)
	for i := range out {
		var err error
		if out[i], err = cache.NewSetAssoc(c.FiniteSets, c.FiniteWays); err != nil {
			return nil, err
		}
	}
	return out, nil
}

package coherence

import (
	"slices"

	"dirsim/internal/bus"
	"dirsim/internal/directory"
	"dirsim/internal/events"
)

// The paper measures event frequencies once per state-change model and
// prices them with per-event costs afterwards (Section 4.1); Section 5
// notes that protocols sharing a state-change model differ only in those
// costs. Some engines' Stats are therefore an exact function of another
// engine's run over the same trace, and a driver may simulate that basis
// alone and price the rest:
//
//   - Berkeley from Dir0B: identical Stats, in every configuration.
//   - Tang from Dir_nNB: identical but for DirAccesses, which Tang's
//     n-way duplicate-directory search multiplies by its probe count, in
//     every configuration.
//   - Dir0B, Berkeley and Dir_iB from any directory engine that never
//     evicts a copy to free a pointer (Dir_nNB, Tang, the coded set,
//     Dir0B, Berkeley, Dir_jB), with no sparse-directory entry limit,
//     whose entry evictions depend on the store. The basis's events,
//     fan-out and eviction tallies are the priced engine's, and its
//     operations follow from the events and from the sharer count at each
//     invalidating write. Dir0B broadcasts every invalidation and owner
//     request. Dir_iB directs owner requests, since a dirty block has one
//     pointer, and broadcasts an invalidation exactly when more than i
//     caches held the block before the write: at a WriteHitCleanShared
//     with k other holders when k ≥ i, at a WriteMissClean with k holders
//     when k > i. That needs sharer sets that only grow between writes,
//     so Dir_iB needs infinite caches: a finite cache's eviction drops a
//     pointer but leaves the broadcast bit set. Stats.InvalFanout merges
//     the two writes' counts; the basis keeps the WriteMissClean share
//     apart (DirEngine.missSharers) to split it.
//   - A SnoopyInval scheme (WTI, Write-Once, MESI) from any engine with
//     the multiple-readers/single-writer state-change model and no
//     invalidations of its own making: another SnoopyInval, or a
//     directory engine that never evicts a copy. Caches must be infinite,
//     since the snoopy and directory families write back evicted blocks
//     differently, and a directory basis must have no sparse-directory
//     entry limit, whose entry evictions change the sharing state. The
//     events then match reference for reference, and the snoopy scheme's
//     operations are its op table applied to them.
//
// Priced operations are computed from the basis's events and fan-out, not
// copied from its operations, so the coded set's wasted invalidations and
// Tang's probe count never carry over.

// PricedFrom reports whether e's Stats are an exact function of basis's
// run whenever both engines have processed the same references since
// construction, so that Price(e, basis) after simulating basis alone gives
// what simulating e would. Only engines of this package built with the
// same Config qualify.
func PricedFrom(e, basis Engine) bool { return pricer(e, basis) != nil }

// Price returns the Stats e would accumulate over the trace basis has run,
// computed from basis's tallies; ok is false when PricedFrom(e, basis)
// does not hold. The Stats share no storage with either engine.
func Price(e, basis Engine) (st *Stats, ok bool) {
	p := pricer(e, basis)
	if p == nil {
		return nil, false
	}
	return p(), true
}

// pricer is the rule PricedFrom states: the function computing e's Stats
// from basis's run, or nil when there is none.
func pricer(e, basis Engine) func() *Stats {
	if e == basis {
		return nil
	}
	switch e := e.(type) {
	case *Berkeley:
		if b, ok := basis.(*DirEngine); ok && b.cfg == e.cfg && hasStore[*directory.TwoBit](b) {
			return b.stats.clone
		}
		return e.DirEngine.broadcastPricer(basis)
	case *DirEngine:
		if b, ok := basis.(*DirEngine); ok && b.cfg == e.cfg &&
			hasStore[*directory.Tang](e) && hasStore[*directory.FullMap](b) {
			return func() *Stats { return e.scaleDirAccesses(&b.stats) }
		}
		return e.broadcastPricer(basis)
	case *SnoopyInval:
		if e.mrsw() && !e.cfg.Finite() && mrswBasis(basis, e.cfg) {
			return func() *Stats { return e.price(basis.Stats()) }
		}
	}
	return nil
}

// hasStore reports whether the directory engine's store is exactly an S.
func hasStore[S directory.Store](e *DirEngine) bool {
	_, ok := e.store.(S)
	return ok
}

// neverEvicts returns basis's directory engine when that engine never
// evicts a copy to free a pointer, and nil otherwise.
func neverEvicts(basis Engine) *DirEngine {
	var d *DirEngine
	switch b := basis.(type) {
	case *Berkeley:
		d = b.DirEngine
	case *DirEngine:
		d = b
	default:
		return nil
	}
	switch s := d.store.(type) {
	case *directory.TwoBit, *directory.FullMap, *directory.Tang, *directory.CodedSet:
		return d
	case *directory.LimitedPointer:
		// Without the broadcast bit a full pointer set evicts a copy.
		if s.Broadcast() {
			return d
		}
	}
	return nil
}

// mrswBasis reports whether basis, built with cfg, has the events and
// invalidation fan-out of a snoopy invalidation engine over the same trace
// under infinite caches.
func mrswBasis(basis Engine, cfg Config) bool {
	if b, ok := basis.(*SnoopyInval); ok {
		return b.mrsw() && b.cfg == cfg
	}
	d := neverEvicts(basis)
	return d != nil && d.cfg == cfg && cfg.DirEntries == 0
}

// broadcastPricer returns the function pricing e, a Dir0B or Dir_iB
// engine, from basis's run, or nil when e is neither or basis does not
// qualify.
func (e *DirEngine) broadcastPricer(basis Engine) func() *Stats {
	i, ok := e.broadcastAbove()
	b := neverEvicts(basis)
	if !ok || b == nil || b.cfg != e.cfg || e.cfg.DirEntries > 0 || (i > 0 && e.cfg.Finite()) {
		return nil
	}
	return func() *Stats { return e.priceBroadcast(i, b) }
}

// broadcastAbove returns, for Dir0B (0) and Dir_iB (i), the number of
// holders above which an invalidation is broadcast; ok is false for every
// other organisation.
func (e *DirEngine) broadcastAbove() (i int, ok bool) {
	switch s := e.store.(type) {
	case *directory.TwoBit:
		return 0, true
	case *directory.LimitedPointer:
		return s.Pointers(), s.Broadcast()
	}
	return 0, false
}

// clone returns a copy of s that shares no storage with it.
func (s *Stats) clone() *Stats {
	c := *s
	c.InvalFanout.Counts = slices.Clone(s.InvalFanout.Counts)
	c.PerCache = slices.Clone(s.PerCache)
	return &c
}

// charge adds n occurrences of the operations ops to s's operation,
// directory and memory tallies, exactly as emit accounts each once for an
// engine whose lookups cost probes directory accesses, and reports whether
// they make a bus transaction.
func (s *Stats) charge(ops []bus.Op, n uint64, probes int) (txn bool) {
	one := engineCore{probes: probes}
	for _, op := range ops {
		one.emit(op)
	}
	for op, k := range one.stats.Ops {
		s.Ops[op] += k * n
	}
	s.DirAccesses += one.stats.DirAccesses * n
	s.MemAccesses += one.stats.MemAccesses * n
	return one.txn
}

// scaleDirAccesses prices Tang from Dir_nNB's Stats: every directory
// lookup searches e.probes duplicate tag stores instead of one map entry.
func (e *DirEngine) scaleDirAccesses(b *Stats) *Stats {
	s := b.clone()
	s.DirAccesses *= uint64(e.probes)
	return s
}

// priceBroadcast prices e, which broadcasts an invalidation when more than
// i caches hold the block, from the run of b, a directory engine that
// never evicts a copy. References, events, transactions, fan-out,
// per-cache and eviction tallies carry over unchanged: the two engines
// share every state change and put the same references on the bus. The
// operations are each event's, those of the eviction write-backs, and the
// invalidations the split fan-out implies.
func (e *DirEngine) priceBroadcast(i int, b *DirEngine) *Stats {
	c := b.stats.clone()
	s := &Stats{
		Refs: c.Refs, Events: c.Events, Transactions: c.Transactions,
		InvalFanout: c.InvalFanout, PerCache: c.PerCache,
		Evictions: c.Evictions, EvictionWriteBacks: c.EvictionWriteBacks,
	}
	request := bus.OpInvalidate
	if i == 0 {
		request = bus.OpBroadcastInvalidate
	}
	for t, n := range s.Events {
		if n > 0 {
			s.charge(dirEventOps(events.Type(t), request), n, e.probes)
		}
	}
	s.charge([]bus.Op{bus.OpWriteBack}, s.EvictionWriteBacks, e.probes)
	// Bucket k of InvalFanout counts write hits with k other holders and
	// write misses with k holders; missSharers holds the misses.
	misses := b.missSharers.Counts
	for k := 1; k < len(s.InvalFanout.Counts); k++ {
		var m uint64
		if k < len(misses) {
			m = misses[k]
		}
		h := s.InvalFanout.Counts[k] - m
		s.invalidate(k+1 > i, uint64(k), h)
		s.invalidate(k > i, uint64(k), m)
	}
	s.InvalEvents = s.Events[events.WriteHitCleanShared] + s.Events[events.WriteMissClean]
	s.charge([]bus.Op{bus.OpInvalidate}, s.DirectedInvals, e.probes)
	s.charge([]bus.Op{bus.OpBroadcastInvalidate}, s.BroadcastInvals, e.probes)
	return s
}

// invalidate tallies n writes that each invalidate k other copies, by one
// broadcast or by k directed messages.
func (s *Stats) invalidate(broadcast bool, k, n uint64) {
	if broadcast {
		s.BroadcastInvals += n
	} else {
		s.DirectedInvals += k * n
	}
}

// price costs a basis's event tallies with e's op table. The reference
// counts, events, fan-out and per-cache tallies carry over unchanged; each
// event's operations are accounted by emit, exactly as classify accounts
// them, once and then scaled by the event's count; and invalidations are
// the broadcast that snooping delivers on every write to a shared clean
// block.
func (e *SnoopyInval) price(b *Stats) *Stats {
	c := b.clone()
	s := &Stats{Refs: c.Refs, Events: c.Events, InvalFanout: c.InvalFanout, PerCache: c.PerCache}
	for t, n := range b.Events {
		if n > 0 && s.charge(e.table[t], n, e.probes) {
			s.Transactions += n
		}
	}
	invals := b.Events[events.WriteHitCleanShared] + b.Events[events.WriteMissClean]
	s.InvalEvents, s.BroadcastInvals = invals, invals
	return s
}

package coherence

import (
	"slices"

	"dirsim/internal/directory"
	"dirsim/internal/events"
)

// The paper measures event frequencies once per state-change model and
// prices them with per-event costs afterwards (Section 4.1); Section 5
// notes that protocols sharing a state-change model differ only in those
// costs. Some engines' Stats are therefore an exact function of another
// engine's Stats over the same trace, and a driver may simulate that
// basis alone and price the rest:
//
//   - Berkeley from Dir0B: identical Stats, in every configuration.
//   - Tang from Dir_nNB: identical but for DirAccesses, which Tang's
//     n-way duplicate-directory search multiplies by its probe count, in
//     every configuration.
//   - A SnoopyInval scheme (WTI, Write-Once, MESI) from any engine with
//     the multiple-readers/single-writer state-change model and no
//     invalidations of its own making: another SnoopyInval, or a
//     directory engine that never evicts a copy to free a pointer (Dir0B,
//     Dir_nNB, Tang, Dir_iB, the coded set, Berkeley). Caches must be
//     infinite, since the snoopy and directory families write back
//     evicted blocks differently, and a directory basis must have no
//     sparse-directory entry limit, whose entry evictions change the
//     sharing state. The events then match reference for reference, and
//     the snoopy scheme's operations are its op table applied to them.

// PricedFrom reports whether e's Stats are an exact function of basis's
// whenever both engines have processed the same references since
// construction, so that Price(e, basis) after simulating basis alone gives
// what simulating e would. Only engines of this package built with the
// same Config qualify.
func PricedFrom(e, basis Engine) bool { return pricer(e, basis) != nil }

// Price returns the Stats e would accumulate over the trace basis has run,
// computed from basis's Stats; ok is false when PricedFrom(e, basis) does
// not hold. The Stats share no storage with either engine.
func Price(e, basis Engine) (st *Stats, ok bool) {
	p := pricer(e, basis)
	if p == nil {
		return nil, false
	}
	return p(basis.Stats()), true
}

// pricer is the rule PricedFrom states: the function turning basis's Stats
// into e's, or nil when there is none.
func pricer(e, basis Engine) func(*Stats) *Stats {
	if e == basis {
		return nil
	}
	switch e := e.(type) {
	case *Berkeley:
		if b, ok := basis.(*DirEngine); ok && b.cfg == e.cfg && hasStore[*directory.TwoBit](b) {
			return (*Stats).clone
		}
	case *DirEngine:
		if b, ok := basis.(*DirEngine); ok && b.cfg == e.cfg &&
			hasStore[*directory.Tang](e) && hasStore[*directory.FullMap](b) {
			return e.scaleDirAccesses
		}
	case *SnoopyInval:
		if !e.cfg.Finite() && mrswBasis(basis, e.cfg) {
			return e.price
		}
	}
	return nil
}

// hasStore reports whether the directory engine's store is exactly an S.
func hasStore[S directory.Store](e *DirEngine) bool {
	_, ok := e.store.(S)
	return ok
}

// mrswBasis reports whether basis, built with cfg, has the events and
// invalidation fan-out of a snoopy invalidation engine over the same trace
// under infinite caches.
func mrswBasis(basis Engine, cfg Config) bool {
	var d *DirEngine
	switch b := basis.(type) {
	case *SnoopyInval:
		return b.cfg == cfg
	case *Berkeley:
		d = b.DirEngine
	case *DirEngine:
		d = b
	default:
		return false
	}
	if d.cfg != cfg || cfg.DirEntries > 0 {
		return false
	}
	switch s := d.store.(type) {
	case *directory.TwoBit, *directory.FullMap, *directory.Tang, *directory.CodedSet:
		return true
	case *directory.LimitedPointer:
		// Without the broadcast bit a full pointer set evicts a copy.
		return s.Broadcast()
	}
	return false
}

// clone returns a copy of s that shares no storage with it.
func (s *Stats) clone() *Stats {
	c := *s
	c.InvalFanout.Counts = slices.Clone(s.InvalFanout.Counts)
	c.PerCache = slices.Clone(s.PerCache)
	return &c
}

// scaleDirAccesses prices Tang from Dir_nNB's Stats: every directory
// lookup searches e.probes duplicate tag stores instead of one map entry.
func (e *DirEngine) scaleDirAccesses(b *Stats) *Stats {
	s := b.clone()
	s.DirAccesses *= uint64(e.probes)
	return s
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
		if n == 0 {
			continue
		}
		one := engineCore{probes: e.probes}
		for _, op := range e.table[t] {
			one.emit(op)
		}
		for op, k := range one.stats.Ops {
			s.Ops[op] += k * n
		}
		s.DirAccesses += one.stats.DirAccesses * n
		s.MemAccesses += one.stats.MemAccesses * n
		if one.txn {
			s.Transactions += n
		}
	}
	invals := b.Events[events.WriteHitCleanShared] + b.Events[events.WriteMissClean]
	s.InvalEvents, s.BroadcastInvals = invals, invals
	return s
}

package sim

import (
	"fmt"

	"dirsim/internal/bus"
	"dirsim/internal/events"
)

// PerEventOps returns, for schemes whose bus operations are a fixed
// function of the event type, the operations one occurrence of each event
// implies. This is the paper's Section 4.1 methodology in executable form:
// event frequencies are measured once, then "weighted by their respective
// costs in bus cycles" for any hardware model.
//
// It is defined for Dir1NB, Dir0B, Berkeley, WTI, Dragon, Firefly, MESI
// and Write-Once, transcribed independently of the engines so that
// VerifyAccounting cross-checks them, priced results included. Schemes
// whose invalidation counts depend on the sharer count have no per-event
// table: Dir_nNB sends one message per sharer, and Dir_iB directs or
// broadcasts by the sharer count. Dir_iB's operations are a function of
// the fan-out split by event (coherence.Price computes them that way);
// the coded set's also depend on which caches share. For these the
// engine's direct operation tally is authoritative here.
func PerEventOps(scheme string) (map[events.Type]bus.OpCounts, bool) {
	mk := func(ops ...bus.Op) bus.OpCounts {
		var c bus.OpCounts
		for _, op := range ops {
			c.Inc(op)
		}
		return c
	}
	switch scheme {
	case "Dir1NB":
		return map[events.Type]bus.OpCounts{
			events.ReadMissClean:     mk(bus.OpDirCheckOverlapped, bus.OpInvalidate, bus.OpMemRead),
			events.ReadMissDirty:     mk(bus.OpDirCheckOverlapped, bus.OpInvalidate, bus.OpWriteBack),
			events.ReadMissUncached:  mk(bus.OpDirCheckOverlapped, bus.OpMemRead),
			events.WriteMissClean:    mk(bus.OpDirCheckOverlapped, bus.OpInvalidate, bus.OpMemRead),
			events.WriteMissDirty:    mk(bus.OpDirCheckOverlapped, bus.OpInvalidate, bus.OpWriteBack),
			events.WriteMissUncached: mk(bus.OpDirCheckOverlapped, bus.OpMemRead),
		}, true
	case "Dir0B", "Berkeley":
		return map[events.Type]bus.OpCounts{
			events.ReadMissClean:       mk(bus.OpDirCheckOverlapped, bus.OpMemRead),
			events.ReadMissDirty:       mk(bus.OpDirCheckOverlapped, bus.OpBroadcastInvalidate, bus.OpWriteBack),
			events.ReadMissUncached:    mk(bus.OpDirCheckOverlapped, bus.OpMemRead),
			events.WriteHitCleanSole:   mk(bus.OpDirCheck),
			events.WriteHitCleanShared: mk(bus.OpDirCheck, bus.OpBroadcastInvalidate),
			events.WriteMissClean:      mk(bus.OpDirCheckOverlapped, bus.OpMemRead, bus.OpBroadcastInvalidate),
			events.WriteMissDirty:      mk(bus.OpDirCheckOverlapped, bus.OpBroadcastInvalidate, bus.OpWriteBack),
			events.WriteMissUncached:   mk(bus.OpDirCheckOverlapped, bus.OpMemRead),
		}, true
	case "WTI":
		return map[events.Type]bus.OpCounts{
			events.ReadMissClean:       mk(bus.OpMemRead),
			events.ReadMissDirty:       mk(bus.OpMemRead),
			events.ReadMissUncached:    mk(bus.OpMemRead),
			events.WriteHitDirty:       mk(bus.OpWriteThrough),
			events.WriteHitCleanSole:   mk(bus.OpWriteThrough),
			events.WriteHitCleanShared: mk(bus.OpWriteThrough),
			events.WriteMissClean:      mk(bus.OpMemRead, bus.OpWriteThrough),
			events.WriteMissDirty:      mk(bus.OpMemRead, bus.OpWriteThrough),
			events.WriteMissUncached:   mk(bus.OpMemRead, bus.OpWriteThrough),
		}, true
	case "Dragon", "Firefly":
		return map[events.Type]bus.OpCounts{
			events.ReadMissClean:     mk(bus.OpMemRead),
			events.ReadMissDirty:     mk(bus.OpCacheRead),
			events.ReadMissUncached:  mk(bus.OpMemRead),
			events.WriteHitUpdate:    mk(bus.OpWriteUpdate),
			events.WriteMissClean:    mk(bus.OpMemRead, bus.OpWriteUpdate),
			events.WriteMissDirty:    mk(bus.OpCacheRead, bus.OpWriteUpdate),
			events.WriteMissUncached: mk(bus.OpMemRead),
		}, true
	case "MESI":
		return map[events.Type]bus.OpCounts{
			events.ReadMissClean:       mk(bus.OpCacheRead),
			events.ReadMissDirty:       mk(bus.OpWriteBack),
			events.ReadMissUncached:    mk(bus.OpMemRead),
			events.WriteHitCleanShared: mk(bus.OpBroadcastInvalidate),
			events.WriteMissClean:      mk(bus.OpCacheRead),
			events.WriteMissDirty:      mk(bus.OpWriteBack),
			events.WriteMissUncached:   mk(bus.OpMemRead),
		}, true
	case "WriteOnce":
		return map[events.Type]bus.OpCounts{
			events.ReadMissClean:       mk(bus.OpMemRead),
			events.ReadMissDirty:       mk(bus.OpWriteBack),
			events.ReadMissUncached:    mk(bus.OpMemRead),
			events.WriteHitCleanSole:   mk(bus.OpWriteThrough),
			events.WriteHitCleanShared: mk(bus.OpWriteThrough),
			events.WriteMissClean:      mk(bus.OpMemRead, bus.OpWriteThrough),
			events.WriteMissDirty:      mk(bus.OpWriteBack, bus.OpWriteThrough),
			events.WriteMissUncached:   mk(bus.OpMemRead, bus.OpWriteThrough),
		}, true
	default:
		return nil, false
	}
}

// OpsFromEvents reconstructs the bus-operation tally of a run from its
// event counts using the per-event table. For the schemes PerEventOps
// covers, this must equal the engine's directly measured Stats.Ops — the
// property tests assert it, validating both accounting paths.
func OpsFromEvents(scheme string, ev events.Counts) (bus.OpCounts, error) {
	table, ok := PerEventOps(scheme)
	if !ok {
		return bus.OpCounts{}, fmt.Errorf("sim: scheme %s has data-dependent operation counts", scheme)
	}
	var out bus.OpCounts
	for ty, ops := range table {
		n := ev[ty]
		for op, k := range ops {
			out[op] += k * n
		}
	}
	return out, nil
}

// VerifyAccounting checks that the frequency path (events × per-event
// operations) reproduces the engine's direct operation tally, where the
// scheme admits a per-event table. It returns nil for schemes that do not.
func VerifyAccounting(r Result) error {
	want, err := OpsFromEvents(r.Scheme, r.Stats.Events)
	if err != nil {
		return nil // data-dependent scheme; direct tally is authoritative
	}
	if want != r.Stats.Ops {
		return fmt.Errorf("sim: %s accounting mismatch:\n events-derived %v\n measured       %v",
			r.Scheme, want, r.Stats.Ops)
	}
	return nil
}

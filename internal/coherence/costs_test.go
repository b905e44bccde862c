package coherence

import (
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/events"
)

// paperOps is the independent oracle for the per-event tables of
// costs.go: for each scheme whose bus operations are a fixed function of
// the event type, the operations one occurrence of each event implies,
// transcribed from the paper's Tables 1–2 and protocol descriptions
// rather than from the engines.
func paperOps(scheme string) (map[events.Type]bus.OpCounts, bool) {
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
	}
	return nil, false
}

// TestEventOpsMatchPaperTables compares every registry scheme's per-event
// table with the oracle entry by entry, across every event type, so
// events no generated trace triggers are checked too; a scheme without
// an oracle table must have no table either.
func TestEventOpsMatchPaperTables(t *testing.T) {
	tabled := 0
	for _, name := range EngineNames() {
		scheme, err := SchemeName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := paperOps(scheme)
		got := eventOps(scheme)
		if ok != (got != nil) {
			t.Errorf("%s: has a table %v, oracle has one %v", scheme, got != nil, ok)
			continue
		}
		if !ok {
			continue
		}
		tabled++
		for i := range got {
			var g bus.OpCounts
			for _, op := range got[i] {
				g.Inc(op)
			}
			if ty := events.Type(i); g != want[ty] {
				t.Errorf("%s %s: table %v, oracle %v", scheme, ty, g, want[ty])
			}
		}
	}
	if tabled != 8 {
		t.Errorf("%d registry schemes with a table, want 8", tabled)
	}
}

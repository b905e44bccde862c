package coherence

import (
	"math/rand"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// --- MESI ---------------------------------------------------------------------

func TestMESIExclusiveStateSilentUpgrade(t *testing.T) {
	// The Illinois E state: a write hit on a sole clean copy needs no bus
	// traffic at all — the advantage over Dir0B's directory check and
	// WTI's write-through.
	e := must(NewMESI(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)  // first (E)
	f.write(0, 1) // E → M silently
	st := e.Stats()
	wantEvent(t, st, events.WriteHitCleanSole, 1)
	if st.Ops.Total() != 0 {
		t.Errorf("E-state upgrade emitted ops: %v", st.Ops)
	}
}

func TestMESISharedWriteBroadcastsOnce(t *testing.T) {
	e := must(NewMESI(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1) // S in both
	f.write(0, 1)
	st := e.Stats()
	wantEvent(t, st, events.WriteHitCleanShared, 1)
	wantOp(t, st, bus.OpBroadcastInvalidate, 1)
	f.read(1, 1) // invalidated: misses, supplied by owner's write-back
	wantEvent(t, st, events.ReadMissDirty, 1)
	wantOp(t, st, bus.OpWriteBack, 1)
}

func TestMESICacheToCacheSupply(t *testing.T) {
	e := must(NewMESI(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1) // supplied by cache 0, not memory (Illinois)
	st := e.Stats()
	wantOp(t, st, bus.OpCacheRead, 1)
	wantOp(t, st, bus.OpMemRead, 0)
}

func TestMESIEventFrequenciesMatchDir0B(t *testing.T) {
	mesi := must(NewMESI(cfg4()))
	d0b := must(NewDir0B(cfg4()))
	f := newFeeder(mesi, d0b)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20000; i++ {
		c := rng.Intn(4)
		b := uint64(rng.Intn(48))
		if rng.Intn(4) == 0 {
			f.write(c, b)
		} else {
			f.read(c, b)
		}
	}
	if mesi.Stats().Events != d0b.Stats().Events {
		t.Fatal("MESI and Dir0B share a state-change model; frequencies must match")
	}
}

// --- WriteOnce ----------------------------------------------------------------

func TestWriteOnceFirstWriteThroughThenLocal(t *testing.T) {
	e := must(NewWriteOnce(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.write(0, 1) // first write: through (Reserved)
	f.write(0, 1) // second write: local (Dirty)
	f.write(0, 1)
	st := e.Stats()
	wantOp(t, st, bus.OpWriteThrough, 1)
	wantEvent(t, st, events.WriteHitCleanSole, 1)
	wantEvent(t, st, events.WriteHitDirty, 2)
}

func TestWriteOnceDirtySupplyByWriteBack(t *testing.T) {
	e := must(NewWriteOnce(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.write(0, 1)
	f.write(0, 1) // dirty now
	f.read(1, 1)  // owner writes back; requester snarfs
	st := e.Stats()
	wantEvent(t, st, events.ReadMissDirty, 1)
	wantOp(t, st, bus.OpWriteBack, 1)
}

func TestWriteOnceCheaperThanWTIButSimilarShape(t *testing.T) {
	wo := must(NewWriteOnce(cfg4()))
	wti := must(NewWTI(cfg4()))
	f := newFeeder(wo, wti)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 30000; i++ {
		c := rng.Intn(4)
		b := uint64(rng.Intn(32))
		if rng.Intn(3) == 0 {
			f.write(c, b)
		} else {
			f.read(c, b)
		}
	}
	m := bus.Pipelined()
	if wo.Stats().CyclesPerRef(m) >= wti.Stats().CyclesPerRef(m) {
		t.Errorf("WriteOnce %.4f not cheaper than WTI %.4f (repeated writes stay local)",
			wo.Stats().CyclesPerRef(m), wti.Stats().CyclesPerRef(m))
	}
	if wo.Stats().Events != wti.Stats().Events {
		t.Error("WriteOnce and WTI share the state-change model")
	}
}

// --- Firefly ------------------------------------------------------------------

func TestFireflySharedWritesKeepMemoryFresh(t *testing.T) {
	ff := must(NewFirefly(cfg4()))
	f := newFeeder(ff)
	f.read(0, 1)
	f.read(1, 1)
	f.write(0, 1) // update goes to caches AND memory
	st := ff.Stats()
	wantEvent(t, st, events.WriteHitUpdate, 1)
	wantOp(t, st, bus.OpWriteUpdate, 1)
	// A third cache's miss is served by (current) memory, not a cache.
	f.read(2, 1)
	wantEvent(t, st, events.ReadMissClean, 2)
	wantOp(t, st, bus.OpCacheRead, 0)
}

func TestFireflyPrivateWriteLeavesMemoryStale(t *testing.T) {
	ff := must(NewFirefly(cfg4()))
	f := newFeeder(ff)
	f.read(0, 1)
	f.write(0, 1) // sole copy: copy-back policy, memory stale
	f.read(1, 1)  // supplied by cache 0; memory snarfs
	st := ff.Stats()
	wantEvent(t, st, events.WriteHitLocal, 1)
	wantEvent(t, st, events.ReadMissDirty, 1)
	wantOp(t, st, bus.OpCacheRead, 1)
	// Memory is current again: another miss is served by memory.
	f.read(2, 1)
	wantEvent(t, st, events.ReadMissClean, 1)
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFireflyVsDragonStaleReads(t *testing.T) {
	// Under Dragon shared data stays dirty in the caches forever; under
	// Firefly memory is refreshed by every shared write, so Dragon sees
	// at least as many cache-supplied (rm-blk-drty) misses.
	drg := must(NewDragon(cfg4()))
	ff := must(NewFirefly(cfg4()))
	f := newFeeder(drg, ff)
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 30000; i++ {
		c := rng.Intn(4)
		b := uint64(rng.Intn(32))
		if rng.Intn(4) == 0 {
			f.write(c, b)
		} else {
			f.read(c, b)
		}
	}
	if drg.Stats().Events[events.ReadMissDirty] < ff.Stats().Events[events.ReadMissDirty] {
		t.Errorf("Dragon rm-blk-drty %d < Firefly %d",
			drg.Stats().Events[events.ReadMissDirty], ff.Stats().Events[events.ReadMissDirty])
	}
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- oracles for the extension protocols ---------------------------------------

func TestOracleMESI(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewMESI(Config{Caches: 5}) },
		func() oracle { return newMRSW() })
}

func TestOracleWriteOnce(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewWriteOnce(Config{Caches: 5}) },
		func() oracle { return newMRSW() })
}

// fireflyOracle: the update family with write-through shared updates.
type fireflyOracle struct {
	dragonOracle
}

func (o *fireflyOracle) predict(c int, kind trace.Kind, block uint64, first bool) events.Type {
	if kind == trace.Instr {
		return events.Instr
	}
	hs := o.holders[block]
	holds := hs[c]
	var ev events.Type
	switch kind {
	case trace.Read:
		switch {
		case holds:
			return events.ReadHit
		case first:
			ev = events.ReadMissFirst
		case o.stale[block]:
			ev = events.ReadMissDirty
			o.stale[block] = false // memory snarfs the supplied block
		case len(hs) > 0:
			ev = events.ReadMissClean
		default:
			ev = events.ReadMissUncached
		}
		o.hold(block, c)
	default:
		wasStale := o.stale[block]
		switch {
		case holds && len(hs) > 1:
			ev = events.WriteHitUpdate
		case holds:
			ev = events.WriteHitLocal
		case first:
			ev = events.WriteMissFirst
		case wasStale:
			ev = events.WriteMissDirty
		case len(hs) > 0:
			ev = events.WriteMissClean
		default:
			ev = events.WriteMissUncached
		}
		o.hold(block, c)
		// A write shared with other holders goes through to memory;
		// a private write leaves memory stale.
		o.stale[block] = len(o.holders[block]) == 1
	}
	return ev
}

func TestOracleFirefly(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewFirefly(Config{Caches: 5}) },
		func() oracle {
			return &fireflyOracle{dragonOracle: *newDragonOracle()}
		})
}

func TestNewSnoopyInvalRejectsUnknownEvent(t *testing.T) {
	table := map[events.Type][]bus.Op{events.Type(events.NumTypes): {bus.OpMemRead}}
	if _, err := NewSnoopyInval("bad", table, false, cfg4()); err == nil {
		t.Fatal("an operation table keyed by an unknown event type was accepted")
	}
}

package coherence

import (
	"math/rand"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

func TestMOESIOwnedStateAvoidsWriteBackOnReadHandoff(t *testing.T) {
	moesi := must(NewMOESI(cfg4()))
	mesi := must(NewMESI(cfg4()))
	f := newFeeder(moesi, mesi)
	f.write(0, 1) // modified at 0 (first ref)
	f.read(1, 1)  // MESI: owner flushes; MOESI: cache-to-cache, stays Owned
	f.read(2, 1)  // MOESI: owner still supplies; memory still stale
	sm, se := moesi.Stats(), mesi.Stats()
	if sm.Ops[bus.OpWriteBack] != 0 {
		t.Fatalf("MOESI wrote back %d times on read hand-offs", sm.Ops[bus.OpWriteBack])
	}
	if se.Ops[bus.OpWriteBack] != 1 {
		t.Fatalf("MESI write-backs = %d, want 1", se.Ops[bus.OpWriteBack])
	}
	// MOESI classifies both later reads as dirty misses (memory stale).
	if sm.Events[events.ReadMissDirty] != 2 {
		t.Fatalf("MOESI rm-drty = %d, want 2", sm.Events[events.ReadMissDirty])
	}
	if se.Events[events.ReadMissDirty] != 1 || se.Events[events.ReadMissClean] != 1 {
		t.Fatalf("MESI events = %v", se.Events)
	}
	if err := moesi.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMOESIOwnerEvictionFlushes(t *testing.T) {
	e := must(NewMOESI(finCfg()))
	f := newFeeder(e)
	f.write(0, 0)
	f.read(1, 0) // dirty sharing: 0 owns, 1 shares
	for b := uint64(4); b <= 40; b += 4 {
		f.read(0, b) // push block 0 out of cache 0 (the owner)
	}
	st := e.Stats()
	if st.EvictionWriteBacks == 0 {
		t.Fatal("owner eviction did not flush the stale block")
	}
	// Cache 1 still holds a (current) copy.
	f.read(1, 0)
	if st.Events[events.ReadHit] == 0 {
		t.Fatal("sharer lost its copy on owner eviction")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMOESIWriteToOwnedSharedInvalidates(t *testing.T) {
	e := must(NewMOESI(cfg4()))
	f := newFeeder(e)
	f.write(0, 1)
	f.read(1, 1)  // dirty sharing
	f.write(0, 1) // owner rewrites: must invalidate cache 1
	st := e.Stats()
	wantOp(t, st, bus.OpBroadcastInvalidate, 1)
	f.read(1, 1)
	if st.Events[events.ReadMissDirty] != 2 {
		t.Fatalf("events = %v", st.Events)
	}
}

func TestMOESISavesMemoryBandwidthOnMigratoryReads(t *testing.T) {
	moesi := must(NewMOESI(cfg4()))
	mesi := must(NewMESI(cfg4()))
	f := newFeeder(moesi, mesi)
	rng := rand.New(rand.NewSource(21))
	// Producer writes, several consumers read, repeat: the Owned state
	// removes the write-back from every hand-off. Under the paper's bus
	// pricing a write-back (4 cycles, data piggybacked) is actually
	// cheaper than a cache supply (5), so MOESI's gain shows up as
	// memory bandwidth, not bus occupancy — assert exactly that.
	for round := 0; round < 5000; round++ {
		b := uint64(rng.Intn(16))
		f.write(int(b)%4, b)
		f.read(rng.Intn(4), b)
		f.read(rng.Intn(4), b)
	}
	sm, se := moesi.Stats(), mesi.Stats()
	if sm.Ops[bus.OpWriteBack] >= se.Ops[bus.OpWriteBack] {
		t.Errorf("MOESI write-backs %d not below MESI %d",
			sm.Ops[bus.OpWriteBack], se.Ops[bus.OpWriteBack])
	}
	if sm.MemAccesses >= se.MemAccesses/2 {
		t.Errorf("MOESI memory accesses %d not well below MESI %d",
			sm.MemAccesses, se.MemAccesses)
	}
	// Bus occupancy stays in the same ballpark (within 25%).
	m := bus.Pipelined()
	ratio := sm.CyclesPerRef(m) / se.CyclesPerRef(m)
	if ratio > 1.25 {
		t.Errorf("MOESI/MESI bus cycles = %.2f, want ≈1", ratio)
	}
}

func TestMOESIByName(t *testing.T) {
	e, err := NewByName("moesi", cfg4())
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "MOESI" {
		t.Errorf("Name = %s", e.Name())
	}
}

// moesiOracle: holders + stale memory + owner, with MOESI's hand-offs.
type moesiOracle struct {
	holders map[uint64]map[int]bool
	stale   map[uint64]int // block → owner, present iff memory stale
}

func newMOESIOracle() *moesiOracle {
	return &moesiOracle{holders: map[uint64]map[int]bool{}, stale: map[uint64]int{}}
}

func (o *moesiOracle) hold(block uint64, c int) {
	if o.holders[block] == nil {
		o.holders[block] = map[int]bool{}
	}
	o.holders[block][c] = true
}

func (o *moesiOracle) key(block uint64) string {
	owner, ok := o.stale[block]
	return setKey(o.holders[block]) + "/" + ownerKey(owner, ok)
}

func (o *moesiOracle) predict(c int, kind trace.Kind, block uint64, first bool) events.Type {
	if kind == trace.Instr {
		return events.Instr
	}
	hs := o.holders[block]
	owner, isStale := o.stale[block]
	holds := hs[c]
	switch kind {
	case trace.Read:
		if holds {
			return events.ReadHit
		}
		var ev events.Type
		switch {
		case first:
			ev = events.ReadMissFirst
		case isStale:
			ev = events.ReadMissDirty // owner supplies, stays Owned
		case len(hs) > 0:
			ev = events.ReadMissClean
		default:
			ev = events.ReadMissUncached
		}
		o.hold(block, c)
		return ev
	default:
		others := len(hs)
		if holds {
			others--
		}
		var ev events.Type
		switch {
		case holds && isStale && owner == c && others == 0:
			return events.WriteHitDirty
		case holds && others == 0:
			ev = events.WriteHitCleanSole
		case holds && isStale:
			ev = events.WriteHitDirty // Owned with sharers
		case holds:
			ev = events.WriteHitCleanShared
		case first:
			ev = events.WriteMissFirst
		case isStale:
			ev = events.WriteMissDirty
		case len(hs) > 0:
			ev = events.WriteMissClean
		default:
			ev = events.WriteMissUncached
		}
		o.holders[block] = map[int]bool{c: true}
		o.stale[block] = c
		return ev
	}
}

func TestOracleMOESI(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewMOESI(Config{Caches: 5}) },
		func() oracle { return newMOESIOracle() })
}

package coherence

import (
	"math/rand"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

func TestReadBroadcastSnarfRepairsAllCopies(t *testing.T) {
	e := must(NewReadBroadcast(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1)
	f.read(2, 1)  // three holders
	f.write(3, 1) // invalidates all three; they become snarfers
	f.read(0, 1)  // one bus read: 0 refills, 1 and 2 snarf for free
	st := e.Stats()
	if st.Snarfs != 2 {
		t.Fatalf("Snarfs = %d, want 2", st.Snarfs)
	}
	// Caches 1 and 2 hit without further bus reads.
	before := st.Ops[bus.OpMemRead]
	f.read(1, 1)
	f.read(2, 1)
	if st.Events[events.ReadHit] != 2 {
		t.Fatalf("snarfed copies did not hit: %v", st.Events)
	}
	if st.Ops[bus.OpMemRead] != before {
		t.Fatal("snarfed hits used the bus")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadBroadcastBeatsWTIOnReadSharing(t *testing.T) {
	// Wide read sharing with occasional writes: read-broadcast repairs
	// all readers with one bus read where WTI pays one miss per reader.
	rb := must(NewReadBroadcast(cfg4()))
	wti := must(NewWTI(cfg4()))
	f := newFeeder(rb, wti)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40000; i++ {
		b := uint64(rng.Intn(8))
		if rng.Intn(20) == 0 {
			f.write(rng.Intn(4), b)
		} else {
			f.read(rng.Intn(4), b)
		}
	}
	m := bus.Pipelined()
	if rb.Stats().CyclesPerRef(m) >= wti.Stats().CyclesPerRef(m) {
		t.Errorf("ReadBroadcast %.4f not below WTI %.4f",
			rb.Stats().CyclesPerRef(m), wti.Stats().CyclesPerRef(m))
	}
	if rb.Stats().Events.ReadMisses() >= wti.Stats().Events.ReadMisses() {
		t.Errorf("ReadBroadcast misses %d not below WTI %d",
			rb.Stats().Events.ReadMisses(), wti.Stats().Events.ReadMisses())
	}
	if rb.Stats().Snarfs == 0 {
		t.Error("no snarfs happened")
	}
}

func TestReadBroadcastWriterNotSnarfer(t *testing.T) {
	e := must(NewReadBroadcast(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.write(1, 1) // 0 becomes a snarfer
	f.write(0, 1) // 0 writes: takes the block, must leave the snarf set
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadBroadcastByName(t *testing.T) {
	e, err := NewByName("readbroadcast", cfg4())
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "ReadBroadcast" {
		t.Errorf("Name = %s", e.Name())
	}
}

// rbOracle: the mrsw model plus the snarf set.
type rbOracle struct {
	holders  map[uint64]map[int]bool
	dirty    map[uint64]int
	snarfers map[uint64]map[int]bool
}

func newRBOracle() *rbOracle {
	return &rbOracle{
		holders:  map[uint64]map[int]bool{},
		dirty:    map[uint64]int{},
		snarfers: map[uint64]map[int]bool{},
	}
}

func (o *rbOracle) hold(block uint64, c int) {
	if o.holders[block] == nil {
		o.holders[block] = map[int]bool{}
	}
	o.holders[block][c] = true
	delete(o.snarfers[block], c)
}

func (o *rbOracle) snarfAll(block uint64) {
	for h := range o.snarfers[block] {
		o.hold(block, h)
	}
	delete(o.snarfers, block)
}

func (o *rbOracle) key(block uint64) string {
	owner, ok := o.dirty[block]
	return setKey(o.holders[block]) + "/" + ownerKey(owner, ok) + "/" + setKey(o.snarfers[block])
}

func (o *rbOracle) predict(c int, kind trace.Kind, block uint64, first bool) events.Type {
	if kind == trace.Instr {
		return events.Instr
	}
	hs := o.holders[block]
	owner, isDirty := o.dirty[block]
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
		case isDirty:
			ev = events.ReadMissDirty
			delete(o.dirty, block)
		case len(hs) > 0:
			ev = events.ReadMissClean
		default:
			ev = events.ReadMissUncached
		}
		o.hold(block, c)
		o.snarfAll(block)
		return ev
	default:
		var ev events.Type
		switch {
		case holds && isDirty && owner == c:
			return events.WriteHitDirty
		case holds && len(hs) == 1:
			ev = events.WriteHitCleanSole
		case holds:
			ev = events.WriteHitCleanShared
		case first:
			ev = events.WriteMissFirst
		case isDirty:
			ev = events.WriteMissDirty
		case len(hs) > 0:
			ev = events.WriteMissClean
		default:
			ev = events.WriteMissUncached
		}
		if o.snarfers[block] == nil {
			o.snarfers[block] = map[int]bool{}
		}
		for h := range hs {
			if h != c {
				o.snarfers[block][h] = true
			}
		}
		delete(o.snarfers[block], c)
		o.holders[block] = map[int]bool{c: true}
		o.dirty[block] = c
		return ev
	}
}

func TestOracleReadBroadcast(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewReadBroadcast(Config{Caches: 5}) },
		func() oracle { return newRBOracle() })
}

package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dirsim/internal/bus"
	"dirsim/internal/events"
)

func TestCompetitiveValidation(t *testing.T) {
	if _, err := NewCompetitive(0, cfg4()); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := NewCompetitive(2, Config{}); err == nil {
		t.Error("invalid machine config accepted")
	}
	e := must(NewCompetitive(3, cfg4()))
	if e.Name() != "Competitive3" {
		t.Errorf("engine = %s", e.Name())
	}
}

func TestCompetitiveSelfInvalidatesAtThreshold(t *testing.T) {
	e := must(NewCompetitive(2, cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1)
	// Cache 0 writes twice: cache 1 absorbs two updates, hits the
	// threshold on the second and drops its copy.
	f.write(0, 1) // update #1 reaches cache 1
	st := e.Stats()
	wantOp(t, st, bus.OpWriteUpdate, 1)
	f.write(0, 1) // update #2: cache 1 self-invalidates
	wantOp(t, st, bus.OpWriteUpdate, 2)
	if st.PointerEvictions != 1 {
		t.Fatalf("drops = %d, want 1", st.PointerEvictions)
	}
	// Further writes are local: no more updates.
	f.write(0, 1)
	wantOp(t, st, bus.OpWriteUpdate, 2)
	wantEvent(t, st, events.WriteHitLocal, 1)
	// Cache 1 re-reading misses (copy gone), supplied by cache 0.
	f.read(1, 1)
	wantEvent(t, st, events.ReadMissDirty, 1)
	wantOp(t, st, bus.OpCacheRead, 1)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompetitiveLocalTouchResetsCounter(t *testing.T) {
	e := must(NewCompetitive(2, cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1)
	f.write(0, 1) // counter(1) = 1
	f.read(1, 1)  // cache 1 touches: counter resets, still a hit
	st := e.Stats()
	wantEvent(t, st, events.ReadHit, 1)
	f.write(0, 1) // counter(1) = 1 again — no drop
	f.write(0, 1) // counter(1) = 2 — drop
	if st.PointerEvictions != 1 {
		t.Fatalf("drops = %d, want 1", st.PointerEvictions)
	}
	if st.Ops[bus.OpWriteUpdate] != 3 {
		t.Fatalf("updates = %d, want 3 (active sharer keeps receiving them)", st.Ops[bus.OpWriteUpdate])
	}
}

// The pathology competitive update exists for: a departed sharer costs
// Dragon one update per write forever, but Competitive_k at most k.
func TestCompetitiveBoundsDepartedSharerCost(t *testing.T) {
	dragon := must(NewDragon(cfg4()))
	comp := must(NewCompetitive(4, cfg4()))
	f := newFeeder(dragon, comp)
	f.read(1, 1) // cache 1 touches the block once, then leaves forever
	for i := 0; i < 1000; i++ {
		f.write(0, 1)
	}
	if got := dragon.Stats().Ops[bus.OpWriteUpdate]; got != 1000 {
		t.Fatalf("Dragon updates = %d, want 1000", got)
	}
	if got := comp.Stats().Ops[bus.OpWriteUpdate]; got > 4 {
		t.Fatalf("Competitive4 updates = %d, want ≤4", got)
	}
}

// With a huge threshold, competitive update degenerates to Dragon exactly.
func TestCompetitiveLargeThresholdEqualsDragon(t *testing.T) {
	dragon := must(NewDragon(cfg4()))
	comp := must(NewCompetitive(1<<30, cfg4()))
	f := newFeeder(dragon, comp)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 30000; i++ {
		c := rng.Intn(4)
		b := uint64(rng.Intn(32))
		if rng.Intn(4) == 0 {
			f.write(c, b)
		} else {
			f.read(c, b)
		}
	}
	if dragon.Stats().Events != comp.Stats().Events {
		t.Fatal("event frequencies differ from Dragon at k=∞")
	}
	if dragon.Stats().Ops != comp.Stats().Ops {
		t.Fatal("op counts differ from Dragon at k=∞")
	}
}

func TestCompetitiveByName(t *testing.T) {
	e, err := NewByName("competitive8", cfg4())
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "Competitive8" {
		t.Errorf("Name = %s", e.Name())
	}
	if _, err := NewByName("competitive0", cfg4()); err == nil {
		t.Error("competitive0 accepted")
	}
	if _, err := NewByName("competitivex", cfg4()); err == nil {
		t.Error("competitivex accepted")
	}
}

// Property: invariants hold and the update traffic is bounded by Dragon's
// on any stream (competitiveness).
func TestQuickCompetitiveNeverExceedsDragonUpdates(t *testing.T) {
	f := func(raw []uint32, kRaw uint8) bool {
		k := 1 + int(kRaw%6)
		dragon, err := NewDragon(Config{Caches: 4})
		if err != nil {
			return false
		}
		comp, err := NewCompetitive(k, Config{Caches: 4})
		if err != nil {
			return false
		}
		replay([]Engine{dragon, comp}, raw, 4, 16)
		if comp.Stats().Ops[bus.OpWriteUpdate] > dragon.Stats().Ops[bus.OpWriteUpdate] {
			return false
		}
		return comp.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Finite mode: evicting the last holder of a stale block writes it back.
func TestCompetitiveFiniteWriteBack(t *testing.T) {
	e := must(NewCompetitive(2, finCfg()))
	f := newFeeder(e)
	f.write(0, 0)
	for b := uint64(4); b <= 40; b += 4 {
		f.read(0, b)
	}
	if e.Stats().EvictionWriteBacks == 0 {
		t.Fatal("stale block evicted silently")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Sweep shape: on the POPS-like drift pattern (writers migrate away from
// readers), smaller thresholds trade update traffic for extra misses.
func TestCompetitiveThresholdSweep(t *testing.T) {
	run := func(k int) *Stats {
		e := must(NewCompetitive(k, cfg4()))
		f := newFeeder(e)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 40000; i++ {
			b := uint64(rng.Intn(16))
			writer := int(b) % 4
			if rng.Intn(3) == 0 {
				f.write(writer, b)
			} else {
				f.read(rng.Intn(4), b)
			}
		}
		return e.Stats()
	}
	small, large := run(1), run(64)
	if small.Ops[bus.OpWriteUpdate] >= large.Ops[bus.OpWriteUpdate] {
		t.Errorf("k=1 updates %d not below k=64 %d",
			small.Ops[bus.OpWriteUpdate], large.Ops[bus.OpWriteUpdate])
	}
	if small.Events.ReadMisses() <= large.Events.ReadMisses() {
		t.Errorf("k=1 misses %d not above k=64 %d",
			small.Events.ReadMisses(), large.Events.ReadMisses())
	}
}

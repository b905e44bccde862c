package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// The message-level NUMA family's hand-checked accounting, its agreement
// with Dir_nNB's classification, and its invariants.

func TestNUMAConfigValidate(t *testing.T) {
	if err := (NUMAConfig{Nodes: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []NUMAConfig{{Nodes: 0}, {Nodes: 1 << 17}, {Nodes: 4, Policy: HomePolicy(9)}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if Interleaved.String() != "interleaved" || FirstTouch.String() != "first-touch" {
		t.Error("policy names wrong")
	}
}

// Hand-checked message accounting for the classic transactions.
func TestTwoHopCleanMiss(t *testing.T) {
	e := must(NewNUMA(NUMAConfig{Nodes: 4}))
	// Block 1 homes at node 1. Node 0 reads it (cold, free), then node 2
	// misses: request 2→1, data 1→2 — two messages, two critical hops.
	e.Access(0, trace.Read, 1, true)
	st := e.NUMAStats()
	if st.Messages != 0 {
		t.Fatalf("cold miss sent %d messages", st.Messages)
	}
	e.Access(2, trace.Read, 1, false)
	st = e.NUMAStats()
	if st.Messages != 2 || st.CriticalHops != 2 {
		t.Fatalf("clean miss: %d msgs, %d hops; want 2, 2", st.Messages, st.CriticalHops)
	}
	if st.HomeRemote != 1 || st.HomeLocal != 0 {
		t.Fatalf("home split = %d local / %d remote", st.HomeLocal, st.HomeRemote)
	}
}

func TestLocalHomeCostsNoHops(t *testing.T) {
	e := must(NewNUMA(NUMAConfig{Nodes: 4}))
	// Block 1 homes at node 1; node 1 itself misses on it after node 0
	// touched it: request and reply are local — messages counted, hops 0.
	e.Access(0, trace.Read, 1, true)
	e.Access(1, trace.Read, 1, false)
	st := e.NUMAStats()
	if st.CriticalHops != 0 {
		t.Fatalf("local-home miss cost %d hops", st.CriticalHops)
	}
	if st.HomeLocal != 1 {
		t.Fatalf("HomeLocal = %d", st.HomeLocal)
	}
}

func TestThreeHopDirtyMiss(t *testing.T) {
	e := must(NewNUMA(NUMAConfig{Nodes: 4}))
	// Node 0 writes block 1 (cold: free, dirty at 0). Node 2 reads:
	// 2→1 (home), 1→0 (forward), 0→2 (data) = 3 critical hops, plus the
	// off-path write-back 0→1: 4 messages.
	e.Access(0, trace.Write, 1, true)
	e.Access(2, trace.Read, 1, false)
	st := e.NUMAStats()
	if st.Messages != 4 {
		t.Fatalf("messages = %d, want 4", st.Messages)
	}
	if st.CriticalHops != 3 {
		t.Fatalf("critical hops = %d, want 3", st.CriticalHops)
	}
	if st.ThreeHopMisses != 1 {
		t.Fatalf("ThreeHopMisses = %d", st.ThreeHopMisses)
	}
}

func TestInvalidationsCarryAcks(t *testing.T) {
	e := must(NewNUMA(NUMAConfig{Nodes: 4}))
	e.Access(0, trace.Read, 1, true)
	e.Access(2, trace.Read, 1, false)
	e.Access(3, trace.Read, 1, false)
	before := e.NUMAStats().Messages
	// Node 0 upgrades: request 0→1, invalidations 1→2 and 1→3, acks
	// 2→0 and 3→0, grant 1→0: six messages.
	e.Access(0, trace.Write, 1, false)
	st := e.NUMAStats()
	if got := st.Messages - before; got != 6 {
		t.Fatalf("upgrade messages = %d, want 6", got)
	}
	if st.Invalidations != 2 || st.InvalAcks != 2 {
		t.Fatalf("invals/acks = %d/%d", st.Invalidations, st.InvalAcks)
	}
}

// The event classification must coincide exactly with the bus simulator's
// full-map engine — same protocol, different accounting.
func TestClassificationMatchesDirnNB(t *testing.T) {
	n := must(NewNUMA(NUMAConfig{Nodes: 5}))
	d := must(NewDirnNB(Config{Caches: 5}))
	rng := rand.New(rand.NewSource(23))
	seen := map[uint64]bool{}
	for i := 0; i < 50000; i++ {
		c := rng.Intn(5)
		b := uint64(rng.Intn(64))
		kind := trace.Read
		switch rng.Intn(5) {
		case 0:
			kind = trace.Write
		case 1:
			kind = trace.Instr
		}
		first := false
		if kind != trace.Instr && !seen[b] {
			seen[b] = true
			first = true
		}
		got := n.Access(c, kind, b, first)
		want := d.Access(c, kind, b, first)
		if got != want {
			t.Fatalf("ref %d: numa %v, DirnNB %v", i, got, want)
		}
	}
	if n.Stats().Events != d.Stats().Events {
		t.Fatal("aggregate events differ")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstTouchImprovesLocality(t *testing.T) {
	// Private-heavy traffic: each node works on its own blocks, with a
	// little sharing. First-touch should make most homes local;
	// interleaved leaves ~1/n local.
	gen := func(policy HomePolicy) *NUMAStats {
		e := must(NewNUMA(NUMAConfig{Nodes: 4, Policy: policy}))
		rng := rand.New(rand.NewSource(7))
		seen := map[uint64]bool{}
		for i := 0; i < 40000; i++ {
			c := rng.Intn(4)
			var b uint64
			if rng.Intn(10) == 0 {
				b = uint64(rng.Intn(8)) // shared pool
			} else {
				b = uint64(1000*(c+1) + rng.Intn(40)) // private pool
			}
			kind := trace.Read
			if rng.Intn(4) == 0 {
				kind = trace.Write
			}
			first := !seen[b]
			seen[b] = true
			e.Access(c, kind, b, first)
		}
		return e.NUMAStats()
	}
	inter := gen(Interleaved)
	ft := gen(FirstTouch)
	if ft.LocalHomeFraction() <= inter.LocalHomeFraction() {
		t.Fatalf("first-touch locality %.2f not above interleaved %.2f",
			ft.LocalHomeFraction(), inter.LocalHomeFraction())
	}
	if ft.CriticalHopsPerRef() >= inter.CriticalHopsPerRef() {
		t.Fatalf("first-touch hops %.4f not below interleaved %.4f",
			ft.CriticalHopsPerRef(), inter.CriticalHopsPerRef())
	}
}

func TestStatsZeroSafe(t *testing.T) {
	var s NUMAStats
	if s.MessagesPerRef() != 0 || s.CriticalHopsPerRef() != 0 || s.LocalHomeFraction() != 0 {
		t.Fatal("zero stats should report zeros")
	}
}

func TestAccessPanicsOutOfRange(t *testing.T) {
	e := must(NewNUMA(NUMAConfig{Nodes: 2}))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.Access(2, trace.Read, 1, true)
}

// Property: invariants hold, hits generate no traffic, and messages are
// always at least critical hops.
func TestQuickNumaInvariants(t *testing.T) {
	f := func(raw []uint32) bool {
		e, err := NewNUMA(NUMAConfig{Nodes: 4, Policy: FirstTouch})
		if err != nil {
			return false
		}
		seen := map[uint64]bool{}
		for _, w := range raw {
			c := int(w) % 4
			b := uint64(w>>8) % 32
			kind := trace.Read
			if (w>>4)%3 == 0 {
				kind = trace.Write
			}
			first := !seen[b]
			seen[b] = true
			before := e.NUMAStats().Messages
			ev := e.Access(c, kind, b, first)
			if ev == events.ReadHit || ev == events.WriteHitDirty {
				if e.NUMAStats().Messages != before {
					return false
				}
			}
		}
		if e.NUMAStats().Messages < e.NUMAStats().CriticalHops {
			return false
		}
		return e.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

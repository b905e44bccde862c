package blockid

import (
	"math/rand"
	"testing"
)

// Ids are assigned densely in first-appearance order, and re-interning
// returns the same id without growing the table.
func TestInternAssignsDenseFirstAppearanceIds(t *testing.T) {
	tab := New()
	blocks := []uint64{42, 0, 1 << 40, 42, 0, 7, 1 << 40}
	wantIDs := []ID{0, 1, 2, 0, 1, 3, 2}
	wantFresh := []bool{true, true, true, false, false, true, false}
	for i, b := range blocks {
		id, fresh := tab.Intern(b)
		if id != wantIDs[i] || fresh != wantFresh[i] {
			t.Errorf("Intern(%d) #%d = (%d, %v), want (%d, %v)", b, i, id, fresh, wantIDs[i], wantFresh[i])
		}
	}
	if tab.Len() != 4 {
		t.Errorf("Len = %d, want 4", tab.Len())
	}
	for id, want := range []uint64{42, 0, 1 << 40, 7} {
		if got := tab.Block(ID(id)); got != want {
			t.Errorf("Block(%d) = %d, want %d", id, got, want)
		}
	}
}

// Lookup finds interned blocks and never assigns.
func TestLookup(t *testing.T) {
	tab := New()
	tab.Intern(5)
	tab.Intern(9)
	if id, ok := tab.Lookup(9); !ok || id != 1 {
		t.Errorf("Lookup(9) = (%d, %v), want (1, true)", id, ok)
	}
	if _, ok := tab.Lookup(6); ok {
		t.Error("Lookup(6) found a block that was never interned")
	}
	if tab.Len() != 2 {
		t.Errorf("Lookup assigned: Len = %d, want 2", tab.Len())
	}
}

// A new table is only its header: the probe slots wait for the first
// Intern, so an engine whose table BindBlocks replaces never fills one.
// The zero Table works the same.
func TestTableDefersProbeSlots(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { _ = New() }); a > 1 {
		t.Errorf("New makes %v allocations, want at most 1 (the header)", a)
	}
	for _, tab := range []*Table{New(), {}} {
		if _, ok := tab.Lookup(3); ok || tab.Len() != 0 {
			t.Fatal("empty table found a block")
		}
		if len(tab.entries) != 0 {
			t.Fatalf("empty table holds %d probe slots", len(tab.entries))
		}
		if id, fresh := tab.Intern(3); id != 0 || !fresh {
			t.Fatalf("first Intern = (%d, %v), want (0, true)", id, fresh)
		}
		if id, ok := tab.Lookup(3); !ok || id != 0 {
			t.Fatalf("Lookup after the first Intern = (%d, %v)", id, ok)
		}
	}
}

// Block 0 is a legal address and must not collide with the empty-slot
// marker.
func TestBlockZero(t *testing.T) {
	tab := New()
	if _, ok := tab.Lookup(0); ok {
		t.Fatal("Lookup(0) on empty table found an assignment")
	}
	id, fresh := tab.Intern(0)
	if id != 0 || !fresh {
		t.Fatalf("Intern(0) = (%d, %v), want (0, true)", id, fresh)
	}
	if id, ok := tab.Lookup(0); !ok || id != 0 {
		t.Fatalf("Lookup(0) = (%d, %v) after interning", id, ok)
	}
}

// Growth across many doublings preserves every assignment, including under
// adversarial keys that collide in the initial table.
func TestGrowthPreservesAssignments(t *testing.T) {
	tab := New()
	const n = 200_000
	for i := 0; i < n; i++ {
		// Strided keys: consecutive multiples of a large power of two all
		// hash near each other under weak hash functions.
		b := uint64(i) << 33
		id, fresh := tab.Intern(b)
		if id != ID(i) || !fresh {
			t.Fatalf("Intern(#%d) = (%d, %v), want (%d, true)", i, id, fresh, i)
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i := 0; i < n; i++ {
		b := uint64(i) << 33
		if id, fresh := tab.Intern(b); id != ID(i) || fresh {
			t.Fatalf("re-Intern(#%d) = (%d, %v), want (%d, false)", i, id, fresh, i)
		}
		if tab.Block(ID(i)) != b {
			t.Fatalf("Block(%d) = %d, want %d", i, tab.Block(ID(i)), b)
		}
	}
}

// The table must agree with a reference map implementation over a random
// mixed stream of repeats and fresh keys.
func TestMatchesReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := New()
	ref := map[uint64]ID{}
	for i := 0; i < 100_000; i++ {
		var b uint64
		if rng.Intn(3) == 0 && len(ref) > 0 {
			b = uint64(rng.Intn(len(ref))) * 16 // likely repeat
		} else {
			b = rng.Uint64()
		}
		id, fresh := tab.Intern(b)
		want, ok := ref[b]
		if ok {
			if fresh || id != want {
				t.Fatalf("Intern(%d) = (%d, %v), want (%d, false)", b, id, fresh, want)
			}
		} else {
			if !fresh || int(id) != len(ref) {
				t.Fatalf("Intern(%d) = (%d, %v), want (%d, true)", b, id, fresh, len(ref))
			}
			ref[b] = id
		}
	}
}

// FuzzIntern feeds adversarial address streams: the table must stay a
// bijection consistent with first-appearance order whatever the input.
func FuzzIntern(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("collide-collide-collide-collide-"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := New()
		ref := map[uint64]ID{}
		order := []uint64{}
		for len(data) >= 8 {
			b := uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 | uint64(data[3])<<24 |
				uint64(data[4])<<32 | uint64(data[5])<<40 | uint64(data[6])<<48 | uint64(data[7])<<56
			data = data[8:]
			id, fresh := tab.Intern(b)
			want, seen := ref[b]
			if seen != !fresh {
				t.Fatalf("Intern(%d): fresh = %v but seen = %v", b, fresh, seen)
			}
			if seen && id != want {
				t.Fatalf("Intern(%d) = %d, want stable id %d", b, id, want)
			}
			if !seen {
				if int(id) != len(order) {
					t.Fatalf("Intern(%d) = %d, want next dense id %d", b, id, len(order))
				}
				ref[b] = id
				order = append(order, b)
			}
		}
		if tab.Len() != len(order) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(order))
		}
		for id, b := range order {
			if tab.Block(ID(id)) != b {
				t.Fatalf("Block(%d) = %d, want %d", id, tab.Block(ID(id)), b)
			}
			if got, ok := tab.Lookup(b); !ok || got != ID(id) {
				t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", b, got, ok, id)
			}
		}
	})
}

// BenchmarkIntern measures the steady-state probe cost (all hits).
func BenchmarkIntern(b *testing.B) {
	tab := New()
	const blocks = 1 << 16
	for i := uint64(0); i < blocks; i++ {
		tab.Intern(i * 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Intern(uint64(i%blocks) * 16)
	}
}

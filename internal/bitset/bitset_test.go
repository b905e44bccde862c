package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if !s.Empty() {
		t.Fatal("zero value should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if s.Contains(3) {
		t.Fatal("zero value should contain nothing")
	}
	s.Add(3)
	if !s.Contains(3) {
		t.Fatal("Add on zero value failed")
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(8)
	for _, i := range []int{0, 7, 63, 64, 65, 200} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	s.Remove(63)
	if s.Contains(63) {
		t.Fatal("Contains(63) after Remove")
	}
	if got := s.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	// Removing an absent or out-of-range element is a no-op.
	s.Remove(63)
	s.Remove(100000)
	s.Remove(-1)
	if got := s.Count(); got != 5 {
		t.Fatalf("Count after no-op removes = %d, want 5", got)
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var s Set
	s.Add(-1)
}

func TestAddIdempotent(t *testing.T) {
	s := New(4)
	s.Add(2)
	s.Add(2)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestMinMax(t *testing.T) {
	s := New(128)
	if _, ok := s.Max(); ok {
		t.Fatal("Max on empty set returned ok")
	}
	for _, i := range []int{90, 5, 64} {
		s.Add(i)
	}
	if max, ok := s.Max(); !ok || max != 90 {
		t.Fatalf("Max = %d,%v want 90,true", max, ok)
	}
}

func TestSole(t *testing.T) {
	s := New(128)
	if _, ok := s.Sole(); ok {
		t.Fatal("Sole on empty returned ok")
	}
	s.Add(77)
	if e, ok := s.Sole(); !ok || e != 77 {
		t.Fatalf("Sole = %d,%v want 77,true", e, ok)
	}
	s.Add(3)
	if _, ok := s.Sole(); ok {
		t.Fatal("Sole on two-element set returned ok")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := New(300)
	want := []int{1, 64, 65, 255}
	for _, i := range want {
		s.Add(i)
	}
	if got := s.Elems(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	var visited []int
	s.ForEach(func(i int) bool {
		visited = append(visited, i)
		return len(visited) < 2
	})
	if !reflect.DeepEqual(visited, []int{1, 64}) {
		t.Fatalf("early stop visited %v", visited)
	}
}

func TestContainsOther(t *testing.T) {
	s := New(8)
	s.Add(3)
	if s.ContainsOther(3) {
		t.Fatal("ContainsOther(3) on {3} should be false")
	}
	if !s.ContainsOther(4) {
		t.Fatal("ContainsOther(4) on {3} should be true")
	}
	s.Add(70)
	if !s.ContainsOther(3) {
		t.Fatal("ContainsOther(3) on {3,70} should be true")
	}
}

func TestCountExcluding(t *testing.T) {
	s := New(8)
	s.Add(1)
	s.Add(2)
	if got := s.CountExcluding(1); got != 1 {
		t.Fatalf("CountExcluding(1) = %d, want 1", got)
	}
	if got := s.CountExcluding(5); got != 2 {
		t.Fatalf("CountExcluding(5) = %d, want 2", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := New(8)
	s.Add(1)
	c := s.Clone()
	c.Add(2)
	if s.Contains(2) {
		t.Fatal("mutating clone affected original")
	}
	if !c.Contains(1) {
		t.Fatal("clone lost element")
	}
}

func TestEqualDifferentCapacities(t *testing.T) {
	a := New(1)
	b := New(1000)
	a.Add(0)
	b.Add(0)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("sets with same elements but different capacity not Equal")
	}
	b.Add(999)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("different sets reported Equal")
	}
}

func TestClear(t *testing.T) {
	s := New(8)
	s.Add(1)
	s.Add(100)
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear left elements behind")
	}
}

func TestString(t *testing.T) {
	s := New(8)
	if got := s.String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
	s.Add(2)
	s.Add(5)
	if got := s.String(); got != "{2, 5}" {
		t.Fatalf("String = %q, want {2, 5}", got)
	}
}

// Property: a Set behaves exactly like a map[int]bool reference model under
// a random operation sequence.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New(0)
		model := map[int]bool{}
		for _, op := range ops {
			i := int(op % 512)
			switch (op / 512) % 3 {
			case 0:
				s.Add(i)
				model[i] = true
			case 1:
				s.Remove(i)
				delete(model, i)
			case 2:
				if s.Contains(i) != model[i] {
					return false
				}
			}
		}
		if s.Count() != len(model) {
			return false
		}
		var want []int
		for k := range model {
			want = append(want, k)
		}
		sort.Ints(want)
		got := s.Elems()
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals the length of Elems, and Max bounds all elements.
func TestQuickCountMinMaxConsistency(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(0)
		for _, r := range raw {
			s.Add(int(r % 1024))
		}
		elems := s.Elems()
		if len(elems) != s.Count() {
			return false
		}
		if len(elems) == 0 {
			_, ok := s.Max()
			return !ok
		}
		max, _ := s.Max()
		return max == elems[len(elems)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddContains(b *testing.B) {
	s := New(64)
	rng := rand.New(rand.NewSource(1))
	idx := make([]int, 1024)
	for i := range idx {
		idx[i] = rng.Intn(64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := idx[i%len(idx)]
		s.Add(j)
		if !s.Contains(j) {
			b.Fatal("missing")
		}
	}
}

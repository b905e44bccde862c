package directory

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"dirsim/internal/blockid"
)

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 64: 6}
	for n, want := range cases {
		if got := log2Ceil(n); got != want {
			t.Errorf("log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

// --- FullMap ---------------------------------------------------------------

func TestFullMapTracksExactHolders(t *testing.T) {
	f := NewFullMap(4)
	if v := f.Add(1, 0); v != -1 {
		t.Fatalf("Add victim = %d", v)
	}
	f.Add(1, 2)
	f.Add(1, 2) // duplicate add is idempotent
	if n, exact := f.Count(1); n != 2 || !exact {
		t.Fatalf("Count = %d,%v want 2,true", n, exact)
	}
	targets, bcast := f.Targets(nil, 1, 2)
	if bcast {
		t.Fatal("full map should never broadcast")
	}
	if !reflect.DeepEqual(sorted(targets), []int{0}) {
		t.Fatalf("Targets = %v, want [0]", targets)
	}
	targets, _ = f.Targets(nil, 1, -1)
	if !reflect.DeepEqual(sorted(targets), []int{0, 2}) {
		t.Fatalf("Targets(-1) = %v", targets)
	}
}

func TestFullMapRemoveSetSoleClear(t *testing.T) {
	f := NewFullMap(4)
	f.Add(7, 0)
	f.Add(7, 1)
	f.Remove(7, 0)
	if n, _ := f.Count(7); n != 1 {
		t.Fatalf("Count after Remove = %d", n)
	}
	f.Remove(7, 3) // absent: no-op
	f.SetSole(7, 2)
	if hs := f.Holders(7); !reflect.DeepEqual(hs, []int{2}) {
		t.Fatalf("Holders after SetSole = %v", hs)
	}
	f.Clear(7)
	if n, exact := f.Count(7); n != 0 || !exact {
		t.Fatalf("Count after Clear = %d,%v", n, exact)
	}
}

func TestFullMapStorage(t *testing.T) {
	f := NewFullMap(16)
	p := DefaultStorageParams(16)
	// 17 bits per block: 16 presence + 1 dirty.
	if got := f.StorageBits(p); got != p.MemoryBlocks*17 {
		t.Fatalf("StorageBits = %d", got)
	}
}

// --- Tang ------------------------------------------------------------------

func TestTangBehavesLikeFullMap(t *testing.T) {
	tg := NewTang(4)
	tg.Add(1, 0)
	tg.Add(1, 3)
	targets, bcast := tg.Targets(nil, 1, 0)
	if bcast || !reflect.DeepEqual(sorted(targets), []int{3}) {
		t.Fatalf("Targets = %v,%v", targets, bcast)
	}
	if tg.Probes() != 4 {
		t.Fatalf("Probes = %d, want 4", tg.Probes())
	}
	if tg.Name() != "tang-duplicate" {
		t.Fatalf("Name = %q", tg.Name())
	}
}

func TestTangStorageScalesWithCachesNotMemory(t *testing.T) {
	tg := NewTang(4)
	small := DefaultStorageParams(4)
	big := small
	big.MemoryBlocks *= 16
	if tg.StorageBits(small) != tg.StorageBits(big) {
		t.Fatal("Tang storage should not depend on memory size")
	}
	want := uint64(4) * small.CacheBlocks * uint64(small.TagBits+1)
	if got := tg.StorageBits(small); got != want {
		t.Fatalf("StorageBits = %d, want %d", got, want)
	}
}

// --- TwoBit ----------------------------------------------------------------

func TestTwoBitStateMachine(t *testing.T) {
	tb := NewTwoBit()
	if n, exact := tb.Count(5); n != 0 || !exact {
		t.Fatalf("initial Count = %d,%v", n, exact)
	}
	tb.Add(5, 0) // uncached → clean-one
	if n, exact := tb.Count(5); n != 1 || !exact {
		t.Fatalf("after one Add: %d,%v", n, exact)
	}
	tb.Add(5, 1) // clean-one → clean-many
	if n, exact := tb.Count(5); n != 2 || exact {
		t.Fatalf("after two Adds: %d,%v want 2,false", n, exact)
	}
	tb.SetSole(5, 1) // write → dirty-one
	if n, exact := tb.Count(5); n != 1 || !exact {
		t.Fatalf("after SetSole: %d,%v", n, exact)
	}
	tb.Add(5, 2) // read miss to dirty block → clean-many
	if n, exact := tb.Count(5); n != 2 || exact {
		t.Fatalf("dirty then Add: %d,%v want 2,false", n, exact)
	}
	tb.Clear(5)
	if n, _ := tb.Count(5); n != 0 {
		t.Fatalf("after Clear: %d", n)
	}
}

func TestTwoBitAlwaysBroadcasts(t *testing.T) {
	tb := NewTwoBit()
	if _, bcast := tb.Targets(nil, 9, -1); bcast {
		t.Fatal("uncached block should need no invalidation")
	}
	tb.Add(9, 0)
	if targets, bcast := tb.Targets(nil, 9, -1); !bcast || targets != nil {
		t.Fatalf("Targets = %v,%v want nil,true", targets, bcast)
	}
}

func TestTwoBitStorage(t *testing.T) {
	p := DefaultStorageParams(64)
	if got := NewTwoBit().StorageBits(p); got != p.MemoryBlocks*2 {
		t.Fatalf("StorageBits = %d", got)
	}
}

// --- LimitedPointer --------------------------------------------------------

func TestLimitedPointerValidation(t *testing.T) {
	if _, err := NewLimitedPointer(0, 4, true); err == nil {
		t.Error("i=0 accepted")
	}
	if _, err := NewLimitedPointer(1, 0, true); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestDir1BSetsBroadcastBitOnOverflow(t *testing.T) {
	lp, err := NewLimitedPointer(1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if v := lp.Add(1, 0); v != -1 {
		t.Fatalf("victim = %d", v)
	}
	targets, bcast := lp.Targets(nil, 1, -1)
	if bcast || !reflect.DeepEqual(targets, []int{0}) {
		t.Fatalf("single holder: %v,%v", targets, bcast)
	}
	if v := lp.Add(1, 2); v != -1 {
		t.Fatalf("Dir_iB overflow should not evict, got victim %d", v)
	}
	if _, bcast := lp.Targets(nil, 1, -1); !bcast {
		t.Fatal("broadcast bit not set after overflow")
	}
	if n, exact := lp.Count(1); exact || n < 2 {
		t.Fatalf("Count after overflow = %d,%v", n, exact)
	}
	// A write resets to a single pointer.
	lp.SetSole(1, 3)
	targets, bcast = lp.Targets(nil, 1, -1)
	if bcast || !reflect.DeepEqual(targets, []int{3}) {
		t.Fatalf("after SetSole: %v,%v", targets, bcast)
	}
}

func TestDiriNBEvictsOldestOnOverflow(t *testing.T) {
	lp, err := NewLimitedPointer(2, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	lp.Add(1, 0)
	lp.Add(1, 1)
	victim := lp.Add(1, 2)
	if victim != 0 {
		t.Fatalf("victim = %d, want 0 (FIFO)", victim)
	}
	targets, bcast := lp.Targets(nil, 1, -1)
	if bcast {
		t.Fatal("Dir_iNB must never broadcast")
	}
	if !reflect.DeepEqual(sorted(targets), []int{1, 2}) {
		t.Fatalf("Targets = %v", targets)
	}
	if n, exact := lp.Count(1); n != 2 || !exact {
		t.Fatalf("Count = %d,%v", n, exact)
	}
}

func TestLimitedPointerDuplicateAddAndRemove(t *testing.T) {
	lp, _ := NewLimitedPointer(2, 4, false)
	lp.Add(3, 1)
	if v := lp.Add(3, 1); v != -1 {
		t.Fatalf("duplicate Add evicted %d", v)
	}
	if n, _ := lp.Count(3); n != 1 {
		t.Fatalf("Count = %d", n)
	}
	lp.Remove(3, 1)
	if n, _ := lp.Count(3); n != 0 {
		t.Fatalf("Count after Remove = %d", n)
	}
	lp.Remove(3, 1) // absent: no-op
}

// TestLimitedPointerFIFOKeys pins the pointer order BlockKey reports:
// removal closes the gap, Dir_iNB evicts the oldest, Dir_iB keeps its
// pointers beside the broadcast bit, and a budget above the cache count
// never overflows.
func TestLimitedPointerFIFOKeys(t *testing.T) {
	nb, _ := NewLimitedPointer(3, 8, false)
	b, _ := NewLimitedPointer(2, 8, true)
	wide, _ := NewLimitedPointer(5, 2, true)
	for _, step := range []struct {
		do   func()
		l    *LimitedPointer
		id   blockid.ID
		want string
	}{
		{func() { nb.Add(7, 0); nb.Add(7, 1); nb.Add(7, 2) }, nb, 7, "[0 1 2]"},
		{func() { nb.Remove(7, 1) }, nb, 7, "[0 2]"},
		{func() { nb.Add(7, 3) }, nb, 7, "[0 2 3]"},
		{func() { nb.Add(7, 4) }, nb, 7, "[2 3 4]"},
		{func() { nb.SetSole(7, 5) }, nb, 7, "[5]"},
		{func() { nb.Clear(7) }, nb, 7, ""},
		{func() { b.Add(2, 4); b.Add(2, 6); b.Add(2, 1) }, b, 2, "[4 6]*"},
		{func() { b.Remove(2, 4) }, b, 2, "[6]*"},
		{func() { b.SetSole(2, 1) }, b, 2, "[1]"},
		{func() { wide.Add(0, 1); wide.Add(0, 0) }, wide, 0, "[1 0]"},
	} {
		step.do()
		if got := step.l.BlockKey(step.id); got != step.want {
			t.Fatalf("%s: BlockKey %q, want %q", step.l.Name(), got, step.want)
		}
	}
}

// TestLimitedPointerAllocationFree checks that the store allocates only
// when its arrays grow: Add, Remove, SetSole, Clear, Count and Targets
// allocate nothing on ids already grown, and a fresh store covering 256
// blocks makes three allocations — its header and its two arrays — not
// one per block.
func TestLimitedPointerAllocationFree(t *testing.T) {
	const blocks = 256
	dst := make([]int, 0, 8)
	ops := func(l *LimitedPointer) {
		for id := blockid.ID(0); id < blocks; id++ {
			for c := 0; c < 4; c++ {
				l.Add(id, c)
			}
			dst, _ = l.Targets(dst[:0], id, 0)
			l.Remove(id, 1)
			l.Add(id, 5)
			l.Count(id)
			l.SetSole(id, 3)
			l.Clear(id)
		}
	}
	for _, bcast := range []bool{false, true} {
		l, err := NewLimitedPointer(2, 8, bcast)
		if err != nil {
			t.Fatal(err)
		}
		l.Add(blocks-1, 0)
		if a := testing.AllocsPerRun(20, func() { ops(l) }); a != 0 {
			t.Errorf("%s: %v allocations per steady-state pass, want 0", l.Name(), a)
		}
		a := testing.AllocsPerRun(20, func() {
			l, _ := NewLimitedPointer(2, 8, bcast)
			l.Add(blocks-1, 0)
			ops(l)
		})
		if a > 3 {
			t.Errorf("%s: %v allocations for a fresh store over %d blocks, want at most 3", l.Name(), a, blocks)
		}
	}
}

func TestLimitedPointerStorage(t *testing.T) {
	p := DefaultStorageParams(64) // log2 = 6
	b, _ := NewLimitedPointer(2, 64, true)
	nb, _ := NewLimitedPointer(2, 64, false)
	// B: 2 pointers × 6 bits + dirty + broadcast = 14.
	if got := b.StorageBits(p); got != p.MemoryBlocks*14 {
		t.Fatalf("Dir2B StorageBits = %d", got)
	}
	// NB: 13.
	if got := nb.StorageBits(p); got != p.MemoryBlocks*13 {
		t.Fatalf("Dir2NB StorageBits = %d", got)
	}
}

func TestLimitedPointerNames(t *testing.T) {
	b, _ := NewLimitedPointer(3, 8, true)
	nb, _ := NewLimitedPointer(3, 8, false)
	if b.Name() != "dir3B-pointers" || nb.Name() != "dir3NB-pointers" {
		t.Fatalf("names = %q, %q", b.Name(), nb.Name())
	}
	if b.Pointers() != 3 {
		t.Fatalf("Pointers = %d", b.Pointers())
	}
}

// --- CodedSet ---------------------------------------------------------------

func TestCodedSetValidation(t *testing.T) {
	if _, err := NewCodedSet(0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewCodedSet(1 << 21); err == nil {
		t.Error("huge n accepted")
	}
}

func TestCodedSetExactForSingleHolder(t *testing.T) {
	cs, err := NewCodedSet(8)
	if err != nil {
		t.Fatal(err)
	}
	cs.Add(1, 5)
	targets, bcast := cs.Targets(nil, 1, -1)
	if bcast || !reflect.DeepEqual(targets, []int{5}) {
		t.Fatalf("Targets = %v,%v", targets, bcast)
	}
	if n, exact := cs.Count(1); n != 1 || !exact {
		t.Fatalf("Count = %d,%v", n, exact)
	}
}

func TestCodedSetSupersetSemantics(t *testing.T) {
	cs, _ := NewCodedSet(8)
	cs.Add(1, 0b000)
	cs.Add(1, 0b011) // digits 0 and 1 widen to "both"
	targets, bcast := cs.Targets(nil, 1, -1)
	if bcast {
		t.Fatal("coded set should direct, not broadcast")
	}
	if !reflect.DeepEqual(sorted(targets), []int{0, 1, 2, 3}) {
		t.Fatalf("Targets = %v, want the 4-element superset", sorted(targets))
	}
	if n, exact := cs.Count(1); n != 4 || exact {
		t.Fatalf("Count = %d,%v want 4,false", n, exact)
	}
}

func TestCodedSetTargetsExcludeRequester(t *testing.T) {
	cs, _ := NewCodedSet(8)
	cs.Add(2, 4)
	cs.Add(2, 5)
	targets, _ := cs.Targets(nil, 2, 5)
	if !reflect.DeepEqual(sorted(targets), []int{4}) {
		t.Fatalf("Targets = %v", targets)
	}
}

func TestCodedSetClampsToCacheCount(t *testing.T) {
	// 6 caches need 3 digits; codes may denote indices ≥ 6 which do not
	// exist and must not be targeted.
	cs, _ := NewCodedSet(6)
	cs.Add(1, 1) // 001
	cs.Add(1, 7%6)
	cs.Add(1, 5) // 101
	cs.Add(1, 3) // 011 → all three digits both? 1=001,5=101 → digit2 both; +3=011 → digit1 both
	targets, _ := cs.Targets(nil, 1, -1)
	for _, c := range targets {
		if c >= 6 {
			t.Fatalf("target %d beyond cache count", c)
		}
	}
}

func TestCodedSetSetSoleNarrows(t *testing.T) {
	cs, _ := NewCodedSet(8)
	cs.Add(1, 0)
	cs.Add(1, 7)
	if n, exact := cs.Count(1); exact || n != 8 {
		t.Fatalf("widened Count = %d,%v", n, exact)
	}
	cs.SetSole(1, 3)
	targets, _ := cs.Targets(nil, 1, -1)
	if !reflect.DeepEqual(targets, []int{3}) {
		t.Fatalf("after SetSole Targets = %v", targets)
	}
	cs.Clear(1)
	if n, _ := cs.Count(1); n != 0 {
		t.Fatal("Clear failed")
	}
}

func TestCodedSetStorage(t *testing.T) {
	cs, _ := NewCodedSet(64)
	p := DefaultStorageParams(64)
	// 2 bits × 6 digits + dirty = 13 bits per block — the paper's
	// 2·log(n) plus the dirty bit.
	if got := cs.StorageBits(p); got != p.MemoryBlocks*13 {
		t.Fatalf("StorageBits = %d", got)
	}
}

// Property: the coded set always denotes a superset of the caches added
// since the last SetSole/Clear.
func TestQuickCodedSetIsSuperset(t *testing.T) {
	f := func(adds []uint8) bool {
		const n = 16
		cs, err := NewCodedSet(n)
		if err != nil {
			return false
		}
		truth := map[int]bool{}
		for _, a := range adds {
			c := int(a % n)
			cs.Add(1, c)
			truth[c] = true
		}
		targets, bcast := cs.Targets(nil, 1, -1)
		if bcast {
			return false
		}
		got := map[int]bool{}
		for _, c := range targets {
			got[c] = true
		}
		for c := range truth {
			if !got[c] {
				return false
			}
		}
		cnt, exact := cs.Count(1)
		if cnt != len(targets) {
			return false
		}
		if exact && len(truth) > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: full map Targets is always exactly the added-minus-removed set.
func TestQuickFullMapExact(t *testing.T) {
	f := func(ops []uint8) bool {
		const n = 8
		fm := NewFullMap(n)
		truth := map[int]bool{}
		for _, op := range ops {
			c := int(op % n)
			if op&0x80 != 0 {
				fm.Remove(1, c)
				delete(truth, c)
			} else {
				if fm.Add(1, c) != -1 {
					return false
				}
				truth[c] = true
			}
		}
		targets, bcast := fm.Targets(nil, 1, -1)
		if bcast || len(targets) != len(truth) {
			return false
		}
		for _, c := range targets {
			if !truth[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dir_iNB never tracks more than i holders and never broadcasts,
// for any add sequence.
func TestQuickDiriNBBounded(t *testing.T) {
	f := func(adds []uint8, iRaw uint8) bool {
		i := 1 + int(iRaw%4)
		lp, err := NewLimitedPointer(i, 16, false)
		if err != nil {
			return false
		}
		for _, a := range adds {
			lp.Add(1, int(a%16))
			if n, exact := lp.Count(1); !exact || n > i {
				return false
			}
			if _, bcast := lp.Targets(nil, 1, -1); bcast {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Storage ordering for large machines: two-bit < coded-set < limited
// pointers < full map (per-memory-block organisations), matching Section
// 6's motivation for reduced directories.
func TestStorageOrdering(t *testing.T) {
	const n = 64
	p := DefaultStorageParams(n)
	twoBit := NewTwoBit().StorageBits(p)
	coded, _ := NewCodedSet(n)
	lp, _ := NewLimitedPointer(4, n, true)
	full := NewFullMap(n).StorageBits(p)
	if !(twoBit < coded.StorageBits(p) && coded.StorageBits(p) < lp.StorageBits(p) && lp.StorageBits(p) < full) {
		t.Fatalf("storage ordering violated: twoBit=%d coded=%d lp=%d full=%d",
			twoBit, coded.StorageBits(p), lp.StorageBits(p), full)
	}
}

package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dirsim/internal/blockid"
)

// ins inserts a block whose id equals its block number — convenient for
// tests, where the identity interning keeps set selection (low block bits)
// and id-keyed membership trivially in sync.
func ins(c *SetAssoc, b uint64) (blockid.ID, bool) {
	return c.Insert(b, blockid.ID(b))
}

func TestNewSetAssocValidation(t *testing.T) {
	for _, bad := range []struct{ sets, ways int }{{0, 2}, {-1, 2}, {3, 2}, {2, 0}, {2, -1}} {
		if _, err := NewSetAssoc(bad.sets, bad.ways); err == nil {
			t.Errorf("NewSetAssoc(%d, %d) succeeded, want error", bad.sets, bad.ways)
		}
	}
	if _, err := NewSetAssoc(4, 2); err != nil {
		t.Errorf("NewSetAssoc(4, 2): %v", err)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c, err := NewLRU(2)
	if err != nil {
		t.Fatal(err)
	}
	ins(c, 1)
	ins(c, 2)
	c.Touch(1) // order now 1 (MRU), 2 (LRU)
	victim, evicted := ins(c, 3)
	if !evicted || victim != 2 {
		t.Errorf("Insert(3) = (%d, %v), want (2, true)", victim, evicted)
	}
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Errorf("residency after eviction: 1=%v 2=%v 3=%v", c.Contains(1), c.Contains(2), c.Contains(3))
	}
}

func TestInsertResidentRefreshes(t *testing.T) {
	c, err := NewLRU(2)
	if err != nil {
		t.Fatal(err)
	}
	ins(c, 1)
	ins(c, 2)
	ins(c, 1) // refresh, not a second copy
	if c.Len() != 2 {
		t.Fatalf("Len = %d after duplicate insert, want 2", c.Len())
	}
	victim, evicted := ins(c, 3)
	if !evicted || victim != 2 {
		t.Errorf("Insert(3) = (%d, %v), want (2, true)", victim, evicted)
	}
}

func TestSetAssocIsolatesSets(t *testing.T) {
	// 2 sets × 1 way: even and odd blocks never displace each other.
	c, err := NewSetAssoc(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ins(c, 0)
	ins(c, 1)
	victim, evicted := ins(c, 2) // even set: displaces 0, not 1
	if !evicted || victim != 0 {
		t.Errorf("Insert(2) = (%d, %v), want (0, true)", victim, evicted)
	}
	if !c.Contains(1) {
		t.Error("odd-set block 1 displaced by an even-set insert")
	}
}

func TestRemoveAbsentAndTouchAbsentAreNoops(t *testing.T) {
	c, err := NewLRU(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Remove(7)
	c.Touch(7)
	ins(c, 1)
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	c.Remove(1)
	c.Remove(1)
	if c.Len() != 0 {
		t.Errorf("Len = %d after double remove, want 0", c.Len())
	}
	// The freed frame is reusable.
	ins(c, 2)
	ins(c, 3)
	if _, evicted := ins(c, 4); !evicted {
		t.Error("full cache did not evict")
	}
}

// The set-associative cache must agree with a straightforward model (per-set
// MRU-ordered lists) across random operation streams.
func TestQuickSetAssocInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const sets, ways = 4, 2
		c, err := NewSetAssoc(sets, ways)
		if err != nil {
			t.Fatal(err)
		}
		// Model: per set, ordered slice of resident blocks, MRU first.
		model := make([][]uint64, sets)
		find := func(s int, b uint64) int {
			for i, x := range model[s] {
				if x == b {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 2000; op++ {
			b := uint64(rng.Intn(32))
			s := int(b % sets)
			switch rng.Intn(3) {
			case 0: // Insert
				victim, evicted := ins(c, b)
				if i := find(s, b); i >= 0 {
					if evicted {
						t.Errorf("seed %d op %d: resident insert evicted", seed, op)
						return false
					}
					model[s] = append(model[s][:i], model[s][i+1:]...)
					model[s] = append([]uint64{b}, model[s]...)
				} else {
					if len(model[s]) == ways {
						wantVictim := model[s][len(model[s])-1]
						if !evicted || uint64(victim) != wantVictim {
							t.Errorf("seed %d op %d: victim = (%d, %v), want (%d, true)", seed, op, victim, evicted, wantVictim)
							return false
						}
						model[s] = model[s][:len(model[s])-1]
					} else if evicted {
						t.Errorf("seed %d op %d: eviction from non-full set", seed, op)
						return false
					}
					model[s] = append([]uint64{b}, model[s]...)
				}
			case 1: // Touch
				c.Touch(blockid.ID(b))
				if i := find(s, b); i >= 0 {
					model[s] = append(model[s][:i], model[s][i+1:]...)
					model[s] = append([]uint64{b}, model[s]...)
				}
			case 2: // Remove
				c.Remove(blockid.ID(b))
				if i := find(s, b); i >= 0 {
					model[s] = append(model[s][:i], model[s][i+1:]...)
				}
			}
			// Residency must agree after every operation.
			total := 0
			for s := range model {
				total += len(model[s])
				for _, x := range model[s] {
					if !c.Contains(blockid.ID(x)) {
						t.Errorf("seed %d op %d: model holds %d, cache does not", seed, op, x)
						return false
					}
				}
			}
			if c.Len() != total {
				t.Errorf("seed %d op %d: Len = %d, model %d", seed, op, c.Len(), total)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The steady-state access path — hits, evictions, removes over an already
// sized id index — must be allocation-free: the intrusive frame pool never
// creates list nodes and the id index only grows on fresh ids.
func TestSetAssocSteadyStateAllocs(t *testing.T) {
	c, err := NewSetAssoc(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 256
	for b := uint64(0); b < blocks; b++ {
		ins(c, b) // size the id index and warm the frame pool
	}
	avg := testing.AllocsPerRun(100, func() {
		for b := uint64(0); b < blocks; b++ {
			ins(c, b)
			c.Touch(blockid.ID(b))
		}
		for b := uint64(0); b < blocks; b += 3 {
			c.Remove(blockid.ID(b))
		}
		for b := uint64(0); b < blocks; b += 3 {
			ins(c, b)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state operations allocated %.1f times per run, want 0", avg)
	}
}

package coherence

import (
	"strings"
	"testing"

	"dirsim/internal/trace"
)

// The soundness tests (the oracles, internal/mc) prove the checkers
// stay silent on legal state. This file proves the other half: each engine
// family's CheckInvariants actually fires when its state is corrupted, so
// a silent checker can never be mistaken for a sound protocol.
func TestCheckInvariantsFiresOnCorruption(t *testing.T) {
	const blk = uint64(1)
	cases := []struct {
		scheme string
		// corrupt damages the engine's internal state after a legal
		// warm-up and returns a substring the error must contain.
		corrupt func(t *testing.T, e Engine) string
	}{
		{"dir1nb", func(t *testing.T, e Engine) string {
			// A dirty block whose recorded owner holds no copy.
			de := e.(*DirEngine)
			id, _ := de.tab.Lookup(blk)
			de.state.dirty[id] = true
			de.state.owner[id] = 2
			return "owner"
		}},
		{"dirnnb", func(t *testing.T, e Engine) string {
			// Ground truth gains a holder the full map never recorded.
			de := e.(*DirEngine)
			id, _ := de.tab.Lookup(blk)
			de.state.sharers[id].Add(1)
			return "holders"
		}},
		{"berkeley", func(t *testing.T, e Engine) string {
			// Berkeley wraps Dir0B: a dirty block must have one holder.
			de := e.(*Berkeley).DirEngine
			id, _ := de.tab.Lookup(blk)
			de.state.dirty[id] = true
			de.state.owner[id] = 1 // not the actual holder
			return "owner"
		}},
		{"wti", func(t *testing.T, e Engine) string {
			se := e.(*SnoopyInval)
			id, _ := se.tab.Lookup(blk)
			se.state.sharers[id].Add(1)
			return "written-state"
		}},
		{"dragon", func(t *testing.T, e Engine) string {
			// Stale memory with no cached copy left to supply the data.
			d := e.(*Dragon)
			id, _ := d.tab.Lookup(blk)
			d.state.dirty[id] = true
			d.state.sharers[id].Remove(0)
			return "stale"
		}},
		{"moesi", func(t *testing.T, e Engine) string {
			m := e.(*SnoopyInval)
			id, _ := m.tab.Lookup(blk)
			m.state.dirty[id] = true
			m.state.owner[id] = 3 // holds no copy
			return "owner"
		}},
		{"competitive4", func(t *testing.T, e Engine) string {
			// An update counter for a cache that holds no copy.
			c := e.(*Dragon)
			id, _ := c.tab.Lookup(blk)
			c.state.unused[int(id)*c.cfg.Caches+3] = 1
			return "non-holder"
		}},
		{"readbroadcast", func(t *testing.T, e Engine) string {
			// A cache cannot both hold the block and wait to snarf it.
			r := e.(*SnoopyInval)
			id, _ := r.tab.Lookup(blk)
			r.state.snarfers[id].Add(0)
			return "snarfer"
		}},
	}
	for _, c := range cases {
		t.Run(c.scheme, func(t *testing.T) {
			e, err := NewByName(c.scheme, Config{Caches: 4})
			if err != nil {
				t.Fatal(err)
			}
			// Legal warm-up: cache 0 reads then writes the block, so the
			// block has state to corrupt.
			e.Access(0, trace.Read, blk, true)
			if c.scheme == "wti" {
				e.Access(0, trace.Write, blk, false)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants violated before corruption: %v", err)
			}
			want := c.corrupt(t, e)
			err = e.CheckInvariants()
			if err == nil {
				t.Fatalf("%s: corrupted state passed CheckInvariants", c.scheme)
			}
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", c.scheme, err, want)
			}
		})
	}
}

package coherence

// An independent reference model ("oracle") for each state-change model,
// written with naive maps and no shared code with the engines. Engines now
// return each reference's classification; the oracle predicts it, and any
// divergence is a bug in one of the two. The random streams below reach
// 5 caches and 24 blocks; TestOracleProduct (oracle_product_test.go) runs
// each engine and its oracle through every reachable state of six small
// universes. This is the strongest end-to-end check in the package because
// the oracle knows nothing about directories, stores, or bus operations.

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// oracle predicts the classification of the next reference. key renders
// its state for one block canonically, so the model checker can tell
// oracle states apart (export_test.go pairs an oracle with its engine).
type oracle interface {
	predict(c int, kind trace.Kind, block uint64, first bool) events.Type
	key(block uint64) string
}

// setKey renders a cache set in ascending order: "{0,2}".
func setKey(set map[int]bool) string {
	var cs []int
	for c, in := range set {
		if in {
			cs = append(cs, c)
		}
	}
	sort.Ints(cs)
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = fmt.Sprint(c)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ownerKey renders an owner that is present iff ok, "-" otherwise.
func ownerKey(owner int, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprint(owner)
}

// mrswOracle models the multiple-readers/single-writer family (Dir0B,
// DirnNB, Dir_iB, coded set, Tang, WTI, Berkeley).
type mrswOracle struct {
	holders map[uint64]map[int]bool
	dirty   map[uint64]int // block → owner, present iff dirty
}

func newMRSW() *mrswOracle {
	return &mrswOracle{holders: map[uint64]map[int]bool{}, dirty: map[uint64]int{}}
}

func (o *mrswOracle) hold(block uint64, c int) {
	if o.holders[block] == nil {
		o.holders[block] = map[int]bool{}
	}
	o.holders[block][c] = true
}

func (o *mrswOracle) key(block uint64) string {
	owner, ok := o.dirty[block]
	return setKey(o.holders[block]) + "/" + ownerKey(owner, ok)
}

func (o *mrswOracle) predict(c int, kind trace.Kind, block uint64, first bool) events.Type {
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
		if first {
			o.hold(block, c)
			return events.ReadMissFirst
		}
		var ev events.Type
		switch {
		case isDirty:
			ev = events.ReadMissDirty
			delete(o.dirty, block) // flushed; owner keeps a clean copy
		case len(hs) > 0:
			ev = events.ReadMissClean
		default:
			ev = events.ReadMissUncached
		}
		o.hold(block, c)
		return ev
	default: // write
		var ev events.Type
		switch {
		case holds && isDirty && owner == c:
			ev = events.WriteHitDirty
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
		o.holders[block] = map[int]bool{c: true}
		o.dirty[block] = c
		return ev
	}
}

// exclusiveOracle models Dir1NB: one copy, period.
type exclusiveOracle struct {
	holder map[uint64]int
	dirty  map[uint64]bool
}

func newExclusive() *exclusiveOracle {
	return &exclusiveOracle{holder: map[uint64]int{}, dirty: map[uint64]bool{}}
}

func (o *exclusiveOracle) key(block uint64) string {
	h, ok := o.holder[block]
	return fmt.Sprintf("%s/%v", ownerKey(h, ok), o.dirty[block])
}

func (o *exclusiveOracle) predict(c int, kind trace.Kind, block uint64, first bool) events.Type {
	if kind == trace.Instr {
		return events.Instr
	}
	h, held := o.holder[block]
	mine := held && h == c
	var ev events.Type
	switch kind {
	case trace.Read:
		switch {
		case mine:
			return events.ReadHit
		case first:
			ev = events.ReadMissFirst
		case held && o.dirty[block]:
			ev = events.ReadMissDirty
		case held:
			ev = events.ReadMissClean
		default:
			ev = events.ReadMissUncached
		}
		o.holder[block] = c
		o.dirty[block] = false
	default:
		switch {
		case mine && o.dirty[block]:
			return events.WriteHitDirty
		case mine:
			// Sole by construction.
			o.dirty[block] = true
			return events.WriteHitCleanSole
		case first:
			ev = events.WriteMissFirst
		case held && o.dirty[block]:
			ev = events.WriteMissDirty
		case held:
			ev = events.WriteMissClean
		default:
			ev = events.WriteMissUncached
		}
		o.holder[block] = c
		o.dirty[block] = true
	}
	return ev
}

// dragonOracle models the update family: copies never disappear.
type dragonOracle struct {
	holders map[uint64]map[int]bool
	stale   map[uint64]bool // memory stale
}

func newDragonOracle() *dragonOracle {
	return &dragonOracle{holders: map[uint64]map[int]bool{}, stale: map[uint64]bool{}}
}

func (o *dragonOracle) hold(block uint64, c int) {
	if o.holders[block] == nil {
		o.holders[block] = map[int]bool{}
	}
	o.holders[block][c] = true
}

func (o *dragonOracle) key(block uint64) string {
	return fmt.Sprintf("%s/%v", setKey(o.holders[block]), o.stale[block])
}

func (o *dragonOracle) predict(c int, kind trace.Kind, block uint64, first bool) events.Type {
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
		case len(hs) > 0:
			ev = events.ReadMissClean
		default:
			ev = events.ReadMissUncached
		}
		o.hold(block, c)
	default:
		switch {
		case holds && len(hs) > 1:
			ev = events.WriteHitUpdate
		case holds:
			ev = events.WriteHitLocal
		case first:
			ev = events.WriteMissFirst
		case o.stale[block]:
			ev = events.WriteMissDirty
		case len(hs) > 0:
			ev = events.WriteMissClean
		default:
			ev = events.WriteMissUncached
		}
		o.hold(block, c)
		o.stale[block] = true
	}
	return ev
}

// checkAgainstOracle replays a random stream through the engine and its
// oracle, failing on the first divergence.
func checkAgainstOracle(t *testing.T, mk func() (Engine, error), mkOracle func() oracle) {
	t.Helper()
	f := func(raw []uint32) bool {
		e, err := mk()
		if err != nil {
			return false
		}
		o := mkOracle()
		seen := map[uint64]bool{}
		for _, w := range raw {
			c := int(w) % e.Caches()
			b := uint64(w>>8) % 24
			var kind trace.Kind
			switch (w >> 4) % 5 {
			case 0:
				kind = trace.Write
			case 1:
				kind = trace.Instr
			default:
				kind = trace.Read
			}
			first := false
			if kind != trace.Instr && !seen[b] {
				seen[b] = true
				first = true
			}
			want := o.predict(c, kind, b, first)
			got := e.Access(c, kind, b, first)
			if got != want {
				t.Logf("%s: cache %d %v block %d first=%v: engine %v, oracle %v",
					e.Name(), c, kind, b, first, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleDir0B(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewDir0B(Config{Caches: 5}) },
		func() oracle { return newMRSW() })
}

func TestOracleDirnNB(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewDirnNB(Config{Caches: 5}) },
		func() oracle { return newMRSW() })
}

func TestOracleDiriB(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewDiriB(2, Config{Caches: 5}) },
		func() oracle { return newMRSW() })
}

func TestOracleCodedSet(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewCodedSet(Config{Caches: 5}) },
		func() oracle { return newMRSW() })
}

func TestOracleTang(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewTang(Config{Caches: 5}) },
		func() oracle { return newMRSW() })
}

func TestOracleWTI(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewWTI(Config{Caches: 5}) },
		func() oracle { return newMRSW() })
}

func TestOracleBerkeley(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewBerkeley(Config{Caches: 5}) },
		func() oracle { return newMRSW() })
}

func TestOracleDir1NB(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewDir1NB(Config{Caches: 5}) },
		func() oracle { return newExclusive() })
}

func TestOracleDragon(t *testing.T) {
	checkAgainstOracle(t,
		func() (Engine, error) { return NewDragon(Config{Caches: 5}) },
		func() oracle { return newDragonOracle() })
}

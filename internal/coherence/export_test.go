package coherence

import (
	"fmt"
	"strings"

	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// WithOracle pairs e with the independent oracle of its state-change
// model (oracle_test.go), so the model checker in internal/mc can explore
// engine and oracle in lockstep: the pair's Access feeds both, its
// CheckInvariants reports the first reference they classified
// differently, and its StateKey appends the oracle's per-block state to
// the engine's. ok is false for a scheme without an oracle.
func WithOracle(e Engine) (paired Engine, ok bool) {
	var o oracle
	switch e.(type) {
	case *NUMAEngine:
		o = newMRSW()
	default:
		switch e.Name() {
		case "Dir0B", "DirnNB", "Dir1B", "Dir2B", "CodedSet", "Tang",
			"Berkeley", "WTI", "MESI", "WriteOnce":
			o = newMRSW()
		case "Dir1NB":
			o = newExclusive()
		case "Dragon":
			o = newDragonOracle()
		case "Firefly":
			o = &fireflyOracle{dragonOracle: *newDragonOracle()}
		case "MOESI":
			o = newMOESIOracle()
		case "ReadBroadcast":
			o = newRBOracle()
		default:
			return nil, false
		}
	}
	return &oracleProduct{Engine: e, insp: e.(Inspector), o: o}, true
}

// oracleProduct is an engine run in lockstep with its oracle.
type oracleProduct struct {
	Engine
	insp Inspector
	o    oracle
	// diverged is the first reference engine and oracle classified
	// differently, nil while they agree.
	diverged error
}

func (p *oracleProduct) Access(c int, kind trace.Kind, block uint64, first bool) events.Type {
	got := p.Engine.Access(c, kind, block, first)
	want := p.o.predict(c, kind, block, first)
	if got != want && p.diverged == nil {
		p.diverged = fmt.Errorf("%s: cache %d %v block %d first=%v: engine %v, oracle %v",
			p.Name(), c, kind, block, first, got, want)
	}
	return got
}

func (p *oracleProduct) CheckInvariants() error {
	if p.diverged != nil {
		return p.diverged
	}
	return p.Engine.CheckInvariants()
}

func (p *oracleProduct) StateKey(blocks []uint64) string {
	var b strings.Builder
	b.WriteString(p.insp.StateKey(blocks))
	b.WriteString("|oracle:")
	for _, blk := range blocks {
		fmt.Fprintf(&b, "b%d:%s;", blk, p.o.key(blk))
	}
	return b.String()
}

func (p *oracleProduct) Truth(block uint64) ([]int, bool) { return p.insp.Truth(block) }

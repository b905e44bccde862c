package spec

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/coherence"
	"dirsim/internal/events"
	"dirsim/internal/sim"
	"dirsim/internal/tracegen"
)

// cellDocFor fabricates a cell document for the cell, with one result
// per scheme under its engine's name and Stats holding one instruction
// fetch, which partitions the references and costs no operation under
// any per-event table.
func cellDocFor(t *testing.T, c Cell) (hash string, data []byte) {
	t.Helper()
	results := make([]SchemeResult, len(c.Schemes))
	for i, s := range c.Schemes {
		e, err := coherence.NewByName(s, c.Machine)
		if err != nil {
			t.Fatal(err)
		}
		st := &coherence.Stats{Refs: 1}
		st.Events.Inc(events.Instr)
		results[i] = SchemeResult{Scheme: e.Name(), Stats: st}
	}
	return docWith(t, c, results)
}

// docWith returns the cell's content address and its document holding
// results.
func docWith(t *testing.T, c Cell, results []SchemeResult) (hash string, data []byte) {
	t.Helper()
	canon, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err = c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(CellDoc{SpecVersion: CurrentVersion, Spec: canon, Results: rb})
	if err != nil {
		t.Fatal(err)
	}
	return hash, data
}

func verifyTestCell(t *testing.T) Cell {
	t.Helper()
	tc := tracegen.POPS(1_000)
	tc.CPUs = 2
	return Cell{Trace: tc, Schemes: []string{"dir0b", "wti"}, Machine: coherence.Config{Caches: 2}}
}

func TestVerifyCellDocAccepts(t *testing.T) {
	hash, data := cellDocFor(t, verifyTestCell(t))
	if err := VerifyCellDoc(hash, data); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

// TestVerifyCellDocAcceptsSimulated runs every registry scheme through
// the cell executor's path on infinite, finite, sparse, warm-up and
// first-reference-cost machines and requires each honest document to
// pass, the per-event accounting identity included.
func TestVerifyCellDocAcceptsSimulated(t *testing.T) {
	for _, tc := range []struct {
		name    string
		machine coherence.Config
		sim     Sim
	}{
		{"infinite", coherence.Config{Caches: 4}, Sim{}},
		{"finite", coherence.Config{Caches: 4, FiniteSets: 16, FiniteWays: 2}, Sim{}},
		{"sparse", coherence.Config{Caches: 4, DirEntries: 64}, Sim{}},
		{"warm-up", coherence.Config{Caches: 4, FiniteSets: 16, FiniteWays: 2}, Sim{WarmupRefs: 5_000}},
		{"first-ref cost", coherence.Config{Caches: 4}, Sim{IncludeFirstRefCosts: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tracegen.POPS(20_000)
			tr.CPUs = 4
			c := Cell{Trace: tr, Schemes: coherence.EngineNames(), Machine: tc.machine, Sim: tc.sim}
			hash, data, rs := simulatedCellDoc(t, c)
			if err := VerifyCellDoc(hash, data); err != nil {
				t.Fatalf("honest document rejected: %v", err)
			}
			replaced := false
			for _, r := range rs {
				replaced = replaced || r.Stats.DirEntryEvictions > 0
			}
			if replaced != (tc.machine.DirEntries > 0) {
				t.Errorf("entry replacements %v with DirEntries %d", replaced, tc.machine.DirEntries)
			}
		})
	}
}

// simulatedCellDoc simulates the cell as the daemon does and returns its
// content address, its document and its results.
func simulatedCellDoc(t *testing.T, c Cell) (hash string, data []byte, rs []SchemeResult) {
	t.Helper()
	job, err := c.Job()
	if err != nil {
		t.Fatal(err)
	}
	src, err := job.Source()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sim.RunSchemes(context.Background(), src, job.Schemes, job.Config, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		rs = append(rs, SchemeResult{Scheme: r.Scheme, Stats: r.Stats})
	}
	hash, data = docWith(t, c, rs)
	return hash, data, rs
}

// A peer cannot substitute results for different work: a document whose
// embedded spec hashes differently from the requested address fails.
func TestVerifyCellDocWrongHash(t *testing.T) {
	_, data := cellDocFor(t, verifyTestCell(t))
	other := verifyTestCell(t)
	other.Trace.Refs = 2_000 // different cell, different address
	wrongHash, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	err = VerifyCellDoc(wrongHash, data)
	if err == nil || !strings.Contains(err.Error(), "content address mismatch") {
		t.Errorf("wrong-address document accepted (err=%v)", err)
	}
}

// Documents from another schema generation are refused before any
// content inspection.
func TestVerifyCellDocWrongVersion(t *testing.T) {
	c := verifyTestCell(t)
	hash, data := cellDocFor(t, c)
	var cd CellDoc
	if err := json.Unmarshal(data, &cd); err != nil {
		t.Fatal(err)
	}
	cd.SpecVersion = CurrentVersion + 1
	stale, err := json.Marshal(cd)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyCellDoc(hash, stale) == nil {
		t.Error("foreign-generation document accepted")
	}
}

// The document must carry exactly one result per scheme the spec names.
func TestVerifyCellDocResultCountMismatch(t *testing.T) {
	c := verifyTestCell(t)
	hash, data := cellDocFor(t, c)
	var cd CellDoc
	if err := json.Unmarshal(data, &cd); err != nil {
		t.Fatal(err)
	}
	var results []SchemeResult
	if err := json.Unmarshal(cd.Results, &results); err != nil {
		t.Fatal(err)
	}
	short, err := json.Marshal(results[:1])
	if err != nil {
		t.Fatal(err)
	}
	cd.Results = short
	truncated, err := json.Marshal(cd)
	if err != nil {
		t.Fatal(err)
	}
	err = VerifyCellDoc(hash, truncated)
	if err == nil || !strings.Contains(err.Error(), "results for") {
		t.Errorf("truncated results accepted (err=%v)", err)
	}
}

// Each forged result list is rejected: one result too many,
// results out of spec order, a scheme the spec does not name, a name in
// the spec's spelling rather than the engine's, missing Stats, events
// that do not partition the references, operations their events and a
// scheme's per-event table do not account for, and entry replacements
// claimed on a cell without a sparse directory.
func TestVerifyCellDocRejectsForgedResults(t *testing.T) {
	c := verifyTestCell(t)
	hash, data := cellDocFor(t, c)
	var cd CellDoc
	if err := json.Unmarshal(data, &cd); err != nil {
		t.Fatal(err)
	}
	var good []SchemeResult
	if err := json.Unmarshal(cd.Results, &good); err != nil {
		t.Fatal(err)
	}
	// forge returns a deep copy of the genuine results changed by f.
	forge := func(f func([]SchemeResult) []SchemeResult) []SchemeResult {
		rs := make([]SchemeResult, len(good))
		for i, r := range good {
			st := *r.Stats
			rs[i] = SchemeResult{Scheme: r.Scheme, Stats: &st}
		}
		return f(rs)
	}
	for _, tc := range []struct {
		name, want string
		results    []SchemeResult
	}{
		{"extra", "results for", forge(func(rs []SchemeResult) []SchemeResult { return append(rs, rs[0]) })},
		{"swapped", "want \"Dir0B\"", forge(func(rs []SchemeResult) []SchemeResult {
			rs[0], rs[1] = rs[1], rs[0]
			return rs
		})},
		{"wrong scheme", "want \"WTI\"", forge(func(rs []SchemeResult) []SchemeResult {
			rs[1].Scheme = "Dragon"
			return rs
		})},
		{"spec spelling", "want \"Dir0B\"", forge(func(rs []SchemeResult) []SchemeResult {
			rs[0].Scheme = "dir0b"
			return rs
		})},
		{"no stats", "no stats", forge(func(rs []SchemeResult) []SchemeResult {
			rs[1].Stats = nil
			return rs
		})},
		{"refs off by one", "events total", forge(func(rs []SchemeResult) []SchemeResult {
			rs[0].Stats.Refs++
			return rs
		})},
		{"broken partition", "events total", forge(func(rs []SchemeResult) []SchemeResult {
			rs[1].Stats.Events.Inc(events.ReadHit)
			return rs
		})},
		{"forged Dir0B ops", "accounting mismatch", forge(func(rs []SchemeResult) []SchemeResult {
			rs[0].Stats.Ops[bus.OpBroadcastInvalidate]++
			return rs
		})},
		{"forged WTI ops", "accounting mismatch", forge(func(rs []SchemeResult) []SchemeResult {
			rs[1].Stats.Ops[bus.OpWriteThrough]++
			return rs
		})},
		// Claiming entry replacements would make the forged operations
		// not checkable, but the cell has no sparse directory.
		{"forged entry replacements", "without a sparse directory", forge(func(rs []SchemeResult) []SchemeResult {
			rs[0].Stats.DirEntryEvictions = 1
			rs[0].Stats.Ops[bus.OpBroadcastInvalidate]++
			return rs
		})},
	} {
		rb, err := json.Marshal(tc.results)
		if err != nil {
			t.Fatal(err)
		}
		forged := cd
		forged.Results = rb
		doc, err := json.Marshal(forged)
		if err != nil {
			t.Fatal(err)
		}
		err = VerifyCellDoc(hash, doc)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: forged document gave %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestVerifyCellDocGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("{"), []byte(`{"spec_version":0}`)} {
		if VerifyCellDoc("deadbeef", data) == nil {
			t.Errorf("garbage %q accepted", data)
		}
	}
}

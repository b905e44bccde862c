package spec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/coherence"
	"dirsim/internal/events"
	"dirsim/internal/sim"
	"dirsim/internal/tracegen"
)

// cellDocFor fabricates a cell document for the cell, with one result
// per scheme under its engine's name and Stats holding as many
// instruction fetches as the unfiltered cell measures, which partition
// the references and cost no operation under any per-event table.
func cellDocFor(t testing.TB, c Cell) (hash string, data []byte) {
	t.Helper()
	results := make([]SchemeResult, len(c.Schemes))
	for i, s := range c.Schemes {
		e, err := coherence.NewByName(s, c.Machine)
		if err != nil {
			t.Fatal(err)
		}
		st := &coherence.Stats{Refs: uint64(max(0, c.Trace.Refs-c.Sim.WarmupRefs))}
		st.Events.Add(events.Instr, st.Refs)
		results[i] = SchemeResult{Scheme: e.Name(), Stats: st}
	}
	return docWith(t, c, results)
}

// docWith returns the cell's content address and its document holding
// results.
func docWith(t testing.TB, c Cell, results []SchemeResult) (hash string, data []byte) {
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

func verifyTestCell(t testing.TB) Cell {
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
func simulatedCellDoc(t testing.TB, c Cell) (hash string, data []byte, rs []SchemeResult) {
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

// scale multiplies a result's references, events and operations by k,
// which keeps the events partitioning the references and the operations
// their events priced by any per-event table.
func scale(st *coherence.Stats, k uint64) {
	st.Refs *= k
	for i := range st.Events {
		st.Events[i] *= k
	}
	for i := range st.Ops {
		st.Ops[i] *= k
	}
}

// Each forged edit of an honest, simulated result list is rejected: one
// result too many, results out of spec order, a scheme the spec does not
// name, a name in the spec's spelling rather than the engine's, missing
// Stats, events that do not partition the references, operations their
// events and a scheme's per-event table do not account for, entry
// replacements claimed on a cell without a sparse directory, and a
// result scaled to a reference count the spec does not determine.
func TestVerifyCellDocRejectsForgedResults(t *testing.T) {
	c := verifyTestCell(t)
	hash, data, _ := simulatedCellDoc(t, c)
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
		{"scaled Dir0B", "the spec determines", forge(func(rs []SchemeResult) []SchemeResult {
			scale(rs[0].Stats, 2)
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

// A filter leaves the reference count to the trace, but every result of
// the cell saw the same one: a result scaled away from the others fails.
func TestVerifyCellDocFilteredRefsAgree(t *testing.T) {
	c := verifyTestCell(t)
	c.Filter = "droplockspins"
	hash, data, rs := simulatedCellDoc(t, c)
	if rs[0].Stats.Refs == uint64(c.Trace.Refs) {
		t.Fatalf("filter dropped no reference of %d", c.Trace.Refs)
	}
	if err := VerifyCellDoc(hash, data); err != nil {
		t.Fatalf("honest filtered document rejected: %v", err)
	}
	scale(rs[1].Stats, 2)
	_, data = docWith(t, c, rs)
	if err := VerifyCellDoc(hash, data); err == nil || !strings.Contains(err.Error(), "where result 0 has") {
		t.Errorf("scaled filtered result gave %v", err)
	}
}

func TestVerifyCellDocGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("{"), []byte(`{"spec_version":0}`)} {
		if VerifyCellDoc("deadbeef", data) == nil {
			t.Errorf("garbage %q accepted", data)
		}
	}
}

// A document's version decides how it is refused before its content is
// read: one from another schema generation, or one that is not JSON, is
// a *VersionError whatever its results hold, while a current-generation
// document whose results do not decode is refused with another error.
func TestVerifyCellDocVersions(t *testing.T) {
	c := verifyTestCell(t)
	hash, data := cellDocFor(t, c)
	var cd CellDoc
	if err := json.Unmarshal(data, &cd); err != nil {
		t.Fatal(err)
	}
	// alien is a results field in a shape no []SchemeResult decodes.
	alien := json.RawMessage(`{"per_scheme":[{"name":"Dir0B","stats":"v2"}]}`)
	doc := func(version int, spec, results json.RawMessage) []byte {
		b, err := json.Marshal(CellDoc{SpecVersion: version, Spec: spec, Results: results})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		version bool
	}{
		{"version 2, alien results", doc(2, cd.Spec, alien), true},
		{"version 2, alien spec", doc(2, json.RawMessage(`{"trace":"pops"}`), cd.Results), true},
		{"version 2, honest content", doc(2, cd.Spec, cd.Results), true},
		{"garbage", []byte("\x00not json"), true},
		{"truncated", data[:len(data)/2], true},
		{"current version, alien results", doc(CurrentVersion, cd.Spec, alien), false},
		{"current version, alien spec", doc(CurrentVersion, json.RawMessage(`{"trace":"pops"}`), cd.Results), false},
	} {
		err := VerifyCellDoc(hash, tc.data)
		var ve *VersionError
		switch {
		case err == nil:
			t.Errorf("%s: accepted", tc.name)
		case errors.As(err, &ve) != tc.version:
			t.Errorf("%s: %v; want a *VersionError: %v", tc.name, err, tc.version)
		}
	}
}

// FuzzVerifyCellDoc feeds VerifyCellDoc arbitrary documents under the
// seed cell's address and under the address of the spec a document
// embeds. No input may panic, and an accepted one must be of the current
// generation with an embedded spec whose reference canonical encoding
// hashes to the address.
func FuzzVerifyCellDoc(f *testing.F) {
	c := verifyTestCell(f)
	hash, data := cellDocFor(f, c)
	f.Add(data)
	_, simulated, _ := simulatedCellDoc(f, c)
	f.Add(simulated)
	f.Add([]byte(`{"spec_version":1,"spec":{},"results":[]}`))
	f.Add([]byte(`{"spec_version":2}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hashes := []string{hash}
		var cd CellDoc
		if json.Unmarshal(data, &cd) == nil {
			var c Cell
			if json.Unmarshal(cd.Spec, &c) == nil {
				if h, err := c.Hash(); err == nil {
					hashes = append(hashes, h)
				}
			}
		}
		for _, h := range hashes {
			if VerifyCellDoc(h, data) != nil {
				continue
			}
			if err := CheckDocVersion(data); err != nil {
				t.Fatalf("accepted a document CheckDocVersion refuses: %v", err)
			}
			var c Cell
			if err := json.Unmarshal(cd.Spec, &c); err != nil {
				t.Fatalf("accepted a document whose spec does not decode: %v", err)
			}
			canon, err := canonicalTree(c.normalized())
			if err != nil {
				t.Fatalf("accepted a spec with no canonical encoding: %v", err)
			}
			if sum := sha256.Sum256(canon); hex.EncodeToString(sum[:]) != h {
				t.Fatalf("accepted a spec that does not hash to %s", h)
			}
		}
	})
}

// BenchmarkVerifyCellDoc verifies simulated documents of a serve-shaped
// cell (4 CPUs) and a fleet-shaped one (16 CPUs).
func BenchmarkVerifyCellDoc(b *testing.B) {
	for _, bc := range []struct {
		name       string
		cpus, refs int
	}{
		{"serve", 4, 20_000},
		{"fleet", 16, 100_000},
	} {
		hash, data, _ := simulatedCellDoc(b, section3Cell(bc.cpus, bc.refs))
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if err := VerifyCellDoc(hash, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// When a document repeats a key, its last value counts whole, as it does
// for CellDoc's raw fields, which is how a daemon reads the document it
// accepted. A repeated spec or results value is therefore checked alone,
// never merged into the earlier one. A repeated spec_version is read as
// CheckDocVersion and CellDoc read it: the last value must be the
// current version, and every value must decode into CellDoc's int.
func TestVerifyCellDocRepeatedKeys(t *testing.T) {
	c := verifyTestCell(t)
	hash, data, rs := simulatedCellDoc(t, c)
	repeat := func(key, value string) []byte {
		return append(append([]byte(nil), data[:len(data)-1]...), `,"`+key+`":`+value+`}`...)
	}
	lead := func(key, value string) []byte {
		return append([]byte(`{"`+key+`":`+value+`,`), data[1:]...)
	}
	// partial holds every scheme name but no Stats field beyond Refs:
	// merged into the honest results it would pass, alone it does not.
	var partial []string
	for _, r := range rs {
		partial = append(partial, fmt.Sprintf(`{"scheme":%q,"stats":{"Refs":%d}}`, r.Scheme, r.Stats.Refs))
	}
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"results", "events total", repeat("results", "["+strings.Join(partial, ",")+"]")},
		{"results, folded case", "events total", repeat("RESULTS", "["+strings.Join(partial, ",")+"]")},
		{"spec", "content address mismatch", repeat("spec", `{"schemes":["dir0b","wti"]}`)},
		{"null spec", "content address mismatch", repeat("Spec", "null")},
		{"spec_version, a string first", "cannot unmarshal string", lead("spec_version", `"x"`)},
		{"spec_version, a fraction first", "cannot unmarshal number 1.5", lead("Spec_Version", "1.5")},
		{"spec_version, null last", "version missing", repeat("spec_version", "null")},
		{"spec_version, 2 last", "version 2 not supported", repeat("spec_version", "2")},
	} {
		err := VerifyCellDoc(hash, tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("repeated %s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// An integer spec_version before the last one is read, as CellDoc
	// reads it, and replaced.
	if err := VerifyCellDoc(hash, lead("spec_version", "2")); err != nil {
		t.Errorf("spec_version 2 replaced by 1 rejected: %v", err)
	}
	if err := VerifyCellDoc(hash, repeat("results", string(mustJSON(t, rs)))); err != nil {
		t.Errorf("repeated honest results rejected: %v", err)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestVerifyCellDocAllocs bounds the allocations of verifying a
// simulated 16-CPU document (114 when the bound was set, 319 with four
// decodes and the marshal, decode and re-emit canonicalizer).
func TestVerifyCellDocAllocs(t *testing.T) {
	hash, data, _ := simulatedCellDoc(t, section3Cell(16, 20_000))
	var err error
	allocs := testing.AllocsPerRun(20, func() { err = VerifyCellDoc(hash, data) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 122 {
		t.Errorf("VerifyCellDoc: %.0f allocations, want at most 122", allocs)
	}
}

// decodeFourPass is the reference decodeCellDoc must match: a cell
// document read as VerifyCellDoc once read it, with CheckDocVersion, then
// CellDoc's raw fields, then the spec and the results each on their own.
func decodeFourPass(data []byte) (Cell, []SchemeResult, error) {
	if err := CheckDocVersion(data); err != nil {
		return Cell{}, nil, err
	}
	var cd CellDoc
	if err := json.Unmarshal(data, &cd); err != nil {
		return Cell{}, nil, err
	}
	var c Cell
	if err := json.Unmarshal(cd.Spec, &c); err != nil {
		return Cell{}, nil, err
	}
	var results []SchemeResult
	if err := json.Unmarshal(cd.Results, &results); err != nil {
		return Cell{}, nil, err
	}
	return c, results, nil
}

// FuzzDecodeCellDocMatchesFourPass holds decodeCellDoc to decodeFourPass:
// both refuse a document or neither does, a refusal is a *VersionError
// on both sides or on neither, and an accepted document decodes to the
// same spec and results.
func FuzzDecodeCellDocMatchesFourPass(f *testing.F) {
	c := verifyTestCell(f)
	_, data := cellDocFor(f, c)
	f.Add(data)
	_, simulated, _ := simulatedCellDoc(f, c)
	f.Add(simulated)
	f.Add([]byte(`{"spec_version":1,"spec":{"schemes":["wti"]},"results":[],"RESULTS":null,"spec":{}}`))
	f.Add([]byte(`{"Spec_Version":1,"spec":{}}`))
	f.Add([]byte(`{"spec_version":"1","spec":{},"results":[]} x`))
	f.Add([]byte(`{"spec_version":"x","spec_version":1,"spec":{},"results":[]}`))
	f.Add([]byte(`{"spec_version":1,"spec":{},"results":[],"SPEC_VERSION":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, rs, err := decodeCellDoc(data)
		wc, wrs, werr := decodeFourPass(data)
		var ve, wve *VersionError
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("decodeCellDoc error %v, four passes %v", err, werr)
		case errors.As(err, &ve) != errors.As(werr, &wve):
			t.Fatalf("decodeCellDoc error %v, four passes %v: one is a *VersionError", err, werr)
		case err == nil && !reflect.DeepEqual(c, wc):
			t.Fatalf("spec %+v, four passes %+v", c, wc)
		case err == nil && !reflect.DeepEqual(rs, wrs):
			t.Fatalf("results %s, four passes %s", mustJSON(t, rs), mustJSON(t, wrs))
		}
	})
}

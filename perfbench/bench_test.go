package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"dirsim/internal/otrace"
	"dirsim/internal/remote"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		name          string
		timed, failed int
		ok            bool
		pct, value    float64
	}{
		{"empty", 0, 0, false, 0, 0},
		{"ten samples support no tail", 10, 0, false, 0, 0},
		{"eleven samples: the minimum has ten beyond it", 11, 0, true, 100.0 / 11, 1},
		{"hundred samples: p90", 100, 0, true, 90, 90},
		{"thousand samples: p99", 1000, 0, true, 99, 990},
		{"failures rank beyond every timed sample", 95, 5, true, 90, 90},
		{"tail lands on a failure", 85, 15, false, 0, 0},
		{"all failed", 0, 20, false, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pct, v, ok := tailOf(seq(tc.timed), tc.failed)
			if ok != tc.ok || math.Abs(pct-tc.pct) > 1e-9 || math.Abs(v-tc.value) > 1e-9 {
				t.Fatalf("tailOf(%d timed, %d failed) = p%v %v %v, want p%v %v %v",
					tc.timed, tc.failed, pct, v, ok, tc.pct, tc.value, tc.ok)
			}
		})
	}
}

func TestTailFallsBackToMaximum(t *testing.T) {
	l := latencies{ms: []float64{3, 1, 2}}
	if pct, v := tailValue(&l); pct != 100 || v != 3 {
		t.Fatalf("tailValue = p%v %v, want p100 3", pct, v)
	}
}

func cellHashes(t *testing.T, cells []spec.Cell) []string {
	t.Helper()
	out := make([]string, len(cells))
	for i, c := range cells {
		h, err := c.Hash()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = h
	}
	return out
}

func TestSchedulesFollowTheSeed(t *testing.T) {
	if !reflect.DeepEqual(serveSchedule(7, 0), serveSchedule(7, 0)) {
		t.Error("serve schedule differs between two builds from one seed")
	}
	if reflect.DeepEqual(serveSchedule(7, 0), serveSchedule(8, 0)) {
		t.Error("serve schedule is the same for seeds 7 and 8")
	}
	if reflect.DeepEqual(serveSchedule(7, 0), serveSchedule(7, 1)) {
		t.Error("serve schedule repeats across epochs")
	}
	c7, err := servePoolCell(7, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	c8, err := servePoolCell(8, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c7.Trace.Seed == c8.Trace.Seed {
		t.Error("serve pool cell trace seed does not depend on the workload seed")
	}

	grid := func(seed int64, round int) []string {
		cells, err := fleetGrid(seed, round)
		if err != nil {
			t.Fatal(err)
		}
		return cellHashes(t, cells)
	}
	if !reflect.DeepEqual(grid(7, 0), grid(7, 0)) {
		t.Error("fleet grid differs between two builds from one seed")
	}
	if reflect.DeepEqual(grid(7, 0), grid(8, 0)) {
		t.Error("fleet grid is the same for seeds 7 and 8")
	}
	if reflect.DeepEqual(grid(7, 0), grid(7, 1)) {
		t.Error("fleet grid repeats across rounds")
	}
	if replayTrace(7).Seed == replayTrace(8).Seed {
		t.Error("replay trace seed does not depend on the workload seed")
	}
}

// TestServeFirstTouchShare pins the property the serve pool and epoch
// sizes were chosen for: 5–10% of requests are first touches.
func TestServeFirstTouchShare(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seen := map[int]bool{}
		for _, k := range serveSchedule(seed, 0) {
			seen[k] = true
		}
		if share := float64(len(seen)) / serveEpoch; share < 0.05 || share > 0.10 {
			t.Errorf("seed %d: first touches are %.3f of requests, want 0.05–0.10", seed, share)
		}
	}
}

// answerFor builds the daemon's answer document for c from a local run.
func answerFor(t *testing.T, c spec.Cell, results []byte) *spec.ResultDoc {
	t.Helper()
	canon, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return &spec.ResultDoc{ID: "x", SpecVersion: spec.CurrentVersion, Status: "done",
		Cells: []spec.CellResult{{Spec: canon, Results: results}}}
}

func localResults(t *testing.T, c spec.Cell) []byte {
	t.Helper()
	refs, err := tracegen.Generate(c.Trace)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sim.RunSchemes(context.Background(), trace.NewSliceReader(refs), c.Schemes, c.Machine, c.Sim.Options())
	if err != nil {
		t.Fatal(err)
	}
	b, err := schemeResultsJSON(rs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFailedFracCounts429AndMismatch drives serveRequest against a fake
// daemon that refuses the first request with 429, answers the second
// correctly and the third with different results for the same cell.
func TestFailedFracCounts429AndMismatch(t *testing.T) {
	c, err := smallCell("pops", 5, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	other, err := smallCell("pops", 6, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	good := answerFor(t, c, localResults(t, c))
	bad := answerFor(t, c, localResults(t, other))
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
		case 2:
			json.NewEncoder(w).Encode(good)
		default:
			json.NewEncoder(w).Encode(bad)
		}
	}))
	defer ts.Close()

	it, err := newCellItem(c)
	if err != nil {
		t.Fatal(err)
	}
	tl := newTally()
	rc := &remote.Client{BaseURL: ts.URL, HTTP: ts.Client()}
	var failed []bool
	for i := 0; i < 3; i++ {
		s := serveRequest(context.Background(), &env{}, rc, it, tl)
		failed = append(failed, s.failed)
	}
	if tl.attempted != 3 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2 (the 429 and the mismatch); reasons %v",
			tl.attempted, tl.failed, tl.reasons)
	}
	if got := tl.frac(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("failed_frac %v, want 2/3", got)
	}
	if !reflect.DeepEqual(failed, []bool{true, false, true}) {
		t.Fatalf("requests failed %v, want the first and the third", failed)
	}
	if err := resimulate(context.Background(), it); err != nil {
		t.Fatalf("the first (correct) answer fails the re-simulation check: %v", err)
	}
}

func TestGoldenDigestStableAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the golden trace three times")
	}
	for _, p := range []int{1, 2, 4} {
		got, err := goldenCheck(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if got != goldenDigest {
			t.Errorf("Parallel=%d: golden digest %s, committed %s", p, got, goldenDigest)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []otrace.Span{
		{Service: "a", Seq: 1, Name: "job", Start: 0, End: 100},
		{Service: "a", Seq: 2, Parent: "a#1", Name: "queue", Start: 0, End: 30},
		{Service: "a", Seq: 3, Parent: "a#1", Name: "chunk", Start: 20, End: 60},
		{Service: "b", Seq: 1, Parent: "a#1", Name: "cache-serve", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	// Children cover [0,60) and [90,100) of the job's [0,100).
	if got := self["job"]; len(got) != 1 || math.Abs(got[0]-30e-6) > 1e-12 {
		t.Fatalf("job self time %v ms, want 30ns", got)
	}
	if got := self["chunk"]; len(got) != 1 || math.Abs(got[0]-40e-6) > 1e-12 {
		t.Fatalf("chunk self time %v ms, want 40ns", got)
	}
}

package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dirsim/internal/coherence"
	"dirsim/internal/flight"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// TestTracedStatsIdenticalAllEngines is the recorder's core contract:
// tracing is a pure observer, so with sampling and spans on — even at
// sample=1, the densest setting — every engine's Stats must be bitwise
// identical to an untraced run. Checked across all 17 registered schemes,
// sequentially and through the parallel fan-out, with and without a
// warm-up window.
func TestTracedStatsIdenticalAllEngines(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.POPS(30_000))
	if err != nil {
		t.Fatal(err)
	}
	schemes := coherence.EngineNames()
	cfg := coherence.Config{Caches: 4}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sequential-sample1", Options{Recorder: flight.New(flight.Options{Sample: 1, Spans: true})}},
		{"sequential-default", Options{Recorder: flight.New(flight.Options{Sample: flight.DefaultSample})}},
		{"parallel-sample1", Options{Parallel: 4, Recorder: flight.New(flight.Options{Sample: 1, Spans: true})}},
		// The warm-up reset lands inside a sampled batch, off a batch
		// boundary.
		{"sequential-warmup-sample1", Options{WarmupRefs: batchRefs + 13, Recorder: flight.New(flight.Options{Sample: 1, Spans: true})}},
		{"parallel-warmup-sample1", Options{WarmupRefs: batchRefs + 13, Parallel: 4, Recorder: flight.New(flight.Options{Sample: 1, Spans: true})}},
	} {
		plain, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), schemes, cfg, Options{WarmupRefs: tc.opts.WarmupRefs})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), schemes, cfg, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range plain {
			if !reflect.DeepEqual(traced[i].Stats, plain[i].Stats) {
				t.Errorf("%s: %s stats differ from untraced run", tc.name, traced[i].Scheme)
			}
		}
		if evs := tc.opts.Recorder.Events(); len(evs) == 0 {
			t.Errorf("%s: recorder captured no events", tc.name)
		}
	}
}

// sharingTrace2 is a fixed 2-CPU workload with enough write sharing to
// exercise directed and broadcast invalidations.
func sharingTrace2() trace.Slice {
	return trace.Slice{
		{CPU: 0, PID: 1, Kind: trace.Read, Addr: 0x100},
		{CPU: 1, PID: 2, Kind: trace.Read, Addr: 0x100},
		{CPU: 0, PID: 1, Kind: trace.Write, Addr: 0x100},
		{CPU: 1, PID: 2, Kind: trace.Read, Addr: 0x100},
		{CPU: 1, PID: 2, Kind: trace.Write, Addr: 0x100},
		{CPU: 0, PID: 1, Kind: trace.Read, Addr: 0x200},
		{CPU: 0, PID: 1, Kind: trace.Write, Addr: 0x200},
		{CPU: 1, PID: 2, Kind: trace.Write, Addr: 0x200},
		{CPU: 0, PID: 1, Kind: trace.Instr, Addr: 0x1000},
		{CPU: 1, PID: 2, Kind: trace.Read, Addr: 0x200},
	}
}

// TestChromeTraceGolden runs 2 CPUs through 2 engines at sample=1 with
// spans and checks the Chrome export against a committed golden file
// (refresh with `go test ./internal/sim -run Golden -update`), then
// re-parses it: valid JSON, and within every (pid, tid) track the
// timestamps must be monotonically non-decreasing.
func TestChromeTraceGolden(t *testing.T) {
	rec := flight.New(flight.Options{Sample: 1, Spans: true, Label: "golden"})
	_, err := RunSchemes(context.Background(), trace.NewSliceReader(sharingTrace2()),
		[]string{"dir1b", "dir0b"}, coherence.Config{Caches: 2}, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := flight.WriteChromeTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_2cpu2eng.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from golden %s (refresh with -update if the change is intended)", golden)
	}

	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Ts  uint64 `json:"ts"`
			Pid int    `json:"pid"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	last := map[[2]int]uint64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		key := [2]int{e.Pid, e.Tid}
		if prev, ok := last[key]; ok && e.Ts < prev {
			t.Fatalf("track pid=%d tid=%d: ts %d after %d — not monotonic", e.Pid, e.Tid, e.Ts, prev)
		}
		last[key] = e.Ts
	}
	if len(last) < 3 {
		t.Fatalf("only %d tracks with events, want driver + 2 engines", len(last))
	}
}

// TestSampleZeroEmitsNothing mirrors -trace-sample=0: a recorder with
// sampling off and no spans captures nothing, and the run's Stats are
// bit-for-bit those of a run with no recorder at all.
func TestSampleZeroEmitsNothing(t *testing.T) {
	run := func(opts Options) []Result {
		rs, err := RunSchemes(context.Background(), trace.NewSliceReader(sharingTrace2()),
			[]string{"dir1b", "dir0b"}, coherence.Config{Caches: 2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	plain := run(Options{})
	rec := flight.New(flight.Options{Sample: 0})
	if rec.Enabled() {
		t.Fatal("sample=0 recorder without spans reports enabled")
	}
	traced := run(Options{Recorder: rec})
	if n := len(rec.Events()); n != 0 {
		t.Fatalf("sample=0 captured %d events, want 0", n)
	}
	for i := range plain {
		if !reflect.DeepEqual(traced[i].Stats, plain[i].Stats) {
			t.Errorf("%s stats changed under a disabled recorder", traced[i].Scheme)
		}
	}
	// A nil recorder takes the identical path.
	nilRec := run(Options{Recorder: nil})
	for i := range plain {
		if !reflect.DeepEqual(nilRec[i].Stats, plain[i].Stats) {
			t.Errorf("%s stats changed under a nil recorder", nilRec[i].Scheme)
		}
	}
}

// TestTrackEventsIdenticalAcrossWorkers checks that every engine's
// sampled events land on that engine's own track however the engines are
// split across workers: at sample=1, the events on each engine track,
// keyed by track name, are identical at every worker count.
func TestTrackEventsIdenticalAcrossWorkers(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.POPS(2_000))
	if err != nil {
		t.Fatal(err)
	}
	schemes := coherence.EngineNames()
	cfg := coherence.Config{Caches: 4}
	byTrack := func(parallel int) map[string][]flight.Event {
		rec := flight.New(flight.Options{Sample: 1, Spans: true})
		if _, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), schemes, cfg,
			Options{Parallel: parallel, Recorder: rec}); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		evs := rec.Events()
		if len(evs) >= 1<<16 {
			// One ring holds every engine at parallel=1; a full ring
			// drops events and the comparison would be meaningless.
			t.Fatalf("parallel=%d: %d events may have overflowed a ring", parallel, len(evs))
		}
		out := map[string][]flight.Event{}
		for _, e := range evs {
			name := rec.TrackName(e.Track)
			if name == "driver" {
				continue
			}
			e.Track = 0
			out[name] = append(out[name], e)
		}
		return out
	}
	want := byTrack(1)
	if len(want) != len(schemes) {
		t.Fatalf("parallel=1: events on %d engine tracks, want %d", len(want), len(schemes))
	}
	for _, parallel := range []int{2, 3, len(schemes)} {
		got := byTrack(parallel)
		if len(got) != len(want) {
			t.Errorf("parallel=%d: events on %d engine tracks, want %d", parallel, len(got), len(want))
		}
		for name, w := range want {
			if !reflect.DeepEqual(got[name], w) {
				t.Errorf("parallel=%d: track %s has %d events differing from parallel=1's %d",
					parallel, name, len(got[name]), len(w))
			}
		}
	}
}

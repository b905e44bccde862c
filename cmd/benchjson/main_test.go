package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testBench has one workload and one metric in each direction.
var testBench = benchmark{
	Workloads: []struct {
		Name string `json:"name"`
	}{{Name: "replay"}},
	EndToEnd: []metricSpec{
		{Name: "req_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	},
}

// res is a correct result line reporting both of testBench's metrics;
// edit, when given, changes it first.
func res(ms, rate float64, edit ...func(*result)) result {
	r := result{Correct: true, Metrics: map[string]metric{"req_p50_ms": {ms, "ms"}, "cells_per_s": {rate, "1/s"}}}
	for _, e := range edit {
		e(&r)
	}
	return r
}

// latencies is one correct result line per req_p50_ms value.
func latencies(ms ...float64) []result {
	rs := make([]result, len(ms))
	for i, v := range ms {
		rs[i] = res(v, 100)
	}
	return rs
}

func TestCompare(t *testing.T) {
	ok := []result{res(100, 100)}
	drop := func(name string) func(*result) { return func(r *result) { delete(r.Metrics, name) } }
	incorrect := func(r *result) { r.Correct = false }
	inSeconds := func(r *result) { r.Metrics["req_p50_ms"] = metric{0.1, "s"} }
	cases := []struct {
		name       string
		base, head []result
		fail       string // a substring of the expected failures; "" means pass
	}{
		{"same", ok, ok, ""},
		{"lower better, at the bound", ok, latencies(125), ""},
		{"lower better, beyond the bound", ok, latencies(125.01), "replay req_p50_ms: head median 125.01"},
		{"lower better, improved", ok, latencies(10), ""},
		{"higher better, at the bound", ok, []result{res(100, 75)}, ""},
		{"higher better, beyond the bound", ok, []result{res(100, 74.99)}, "replay cells_per_s: head median 74.99"},
		{"higher better, improved", ok, []result{res(100, 1000)}, ""},
		{"missing at head", ok, []result{res(100, 100, drop("cells_per_s"))}, "replay cells_per_s: head run 1 lacks the metric"},
		{"missing at base", []result{ok[0], res(100, 100, drop("req_p50_ms"))}, ok, "replay req_p50_ms: base run 2 lacks the metric"},
		{"other unit", ok, []result{res(100, 100, inSeconds)}, `replay req_p50_ms: head run 1 reports it in "s"`},
		{"no head runs", ok, nil, "replay req_p50_ms: no head runs"},
		{"incorrect head", ok, []result{ok[0], res(100, 100, incorrect)}, "replay: head run 2 is not correct"},
		{"incorrect base", []result{res(100, 100, incorrect)}, ok, "replay: base run 1 is not correct"},
		// The base median is 100, the mean of the middle two. Taking the
		// lower middle (90) would fail the first case; taking the upper
		// (110) would pass the second.
		{"even count, at the bound", latencies(60, 90, 110, 1000), latencies(10, 120, 130, 900), ""},
		{"even count, beyond the bound", latencies(60, 90, 110, 1000), latencies(10, 125, 126, 900),
			"replay req_p50_ms: head median 125.5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			failed := strings.Join(compare(&out, testBench,
				map[string][]result{"replay": c.base}, map[string][]result{"replay": c.head}), "\n")
			if (c.fail == "") != (failed == "") || !strings.Contains(failed, c.fail) {
				t.Errorf("want failure %q, got %q", c.fail, failed)
			}
		})
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	dir, empty := t.TempDir(), t.TempDir()
	bench, err := json.Marshal(testBench)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string][]byte{
		filepath.Join(dir, "BENCHMARK.json"): bench,
		filepath.Join(dir, "replay.jsonl"):   line,
		filepath.Join(empty, "replay.jsonl"): nil,
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := run(&out, filepath.Join(dir, "BENCHMARK.json"), dir, dir); err != nil {
		t.Errorf("identical runs should pass: %v", err)
	}
	if err := run(&out, filepath.Join(dir, "BENCHMARK.json"), dir, empty); err == nil {
		t.Error("a side without result lines should be an error")
	}
}

// TestLedger checks every line of the committed ledger, BENCH.json: each
// run is correct, was as long as BENCHMARK.json's run_seconds, and
// reports every end-to-end metric BENCHMARK.json declares on every
// workload, in its unit.
func TestLedger(t *testing.T) {
	bm, err := loadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	for n := 1; ; n++ {
		var line struct {
			Commit, CPU string
			Seconds     int
			Results     map[string]result
			Traced      *result
		}
		if err := dec.Decode(&line); errors.Is(err, io.EOF) {
			if n == 1 {
				t.Error("BENCH.json has no lines")
			}
			break
		} else if err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if line.Commit == "" || line.CPU == "" || line.Seconds != bm.RunSeconds {
			t.Errorf("line %d: commit %q, cpu %q, %d s runs; BENCHMARK.json's run_seconds is %d",
				n, line.Commit, line.CPU, line.Seconds, bm.RunSeconds)
		}
		if line.Traced == nil || !line.Traced.Correct {
			t.Errorf("line %d: the traced run is missing or not correct", n)
		}
		for _, w := range bm.Workloads {
			r, ok := line.Results[w.Name]
			if !ok || !r.Correct {
				t.Errorf("line %d: %s result missing or not correct", n, w.Name)
			}
			for _, m := range bm.EndToEnd {
				if _, err := median(w.Name, []result{r}, m); err != nil {
					t.Errorf("line %d: %s %s: %v", n, w.Name, m.Name, err)
				}
			}
		}
	}
}

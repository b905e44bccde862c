// Command benchjson is the wall-time gate of the benchmark of record. Run
// from the checkout root, it compares perfbench result lines from a base
// revision and from HEAD under the bounds BENCHMARK.json fixes:
//
//	benchjson <base-dir> <head-dir>
//
// Each directory holds <workload>.jsonl for every workload BENCHMARK.json
// names, one perfbench JSON result line per run (`make perfbench-ab`
// writes them). For every workload and end-to-end metric it takes the
// median over each side's runs; HEAD's median may be worse than the
// base's by at most the metric's bound, in the metric's better
// direction. A run that is not correct, or that lacks a metric or
// reports it in another unit, fails the comparison too. The exit status
// is 1 when anything fails, and each failure names its workload and
// metric.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmark is the part of BENCHMARK.json the gate reads.
type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric and the bound by which HEAD's
// median may be worse than the base's.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// result is one perfbench JSON result line.
type result struct {
	Correct bool              `json:"correct"`
	Metrics map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchjson <base-dir> <head-dir>")
		os.Exit(2)
	}
	if err := run(os.Stdout, "BENCHMARK.json", os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, benchPath, baseDir, headDir string) error {
	bm, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	base, head := map[string][]result{}, map[string][]result{}
	for _, w := range bm.Workloads {
		if base[w.Name], err = readResults(filepath.Join(baseDir, w.Name+".jsonl")); err != nil {
			return err
		}
		if head[w.Name], err = readResults(filepath.Join(headDir, w.Name+".jsonl")); err != nil {
			return err
		}
	}
	if failed := compare(stdout, bm, base, head); len(failed) > 0 {
		return fmt.Errorf("%d failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

func loadBenchmark(path string) (benchmark, error) {
	var bm benchmark
	data, err := os.ReadFile(path)
	if err != nil {
		return bm, err
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		return bm, fmt.Errorf("%s: %w", path, err)
	}
	if len(bm.Workloads) == 0 || len(bm.EndToEnd) == 0 {
		return bm, fmt.Errorf("%s names no workloads or no end-to-end metrics", path)
	}
	for _, m := range bm.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || m.Bound < 0 {
			return bm, fmt.Errorf("%s: metric %s: better %q, bound %v", path, m.Name, m.Better, m.Bound)
		}
	}
	return bm, nil
}

// readResults reads the JSON result lines of path.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	for dec := json.NewDecoder(f); ; {
		var r result
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s has no result lines", path)
	}
	return rs, nil
}

// compare prints one row per workload and end-to-end metric and returns
// the failures, each naming its workload and metric.
func compare(w io.Writer, bm benchmark, base, head map[string][]result) []string {
	var failed []string
	fail := func(format string, args ...any) { failed = append(failed, fmt.Sprintf(format, args...)) }
	for _, wl := range bm.Workloads {
		for side, rs := range map[string][]result{"base": base[wl.Name], "head": head[wl.Name]} {
			for i, r := range rs {
				if !r.Correct {
					fail("%s: %s run %d is not correct", wl.Name, side, i+1)
				}
			}
		}
		for _, m := range bm.EndToEnd {
			mb, errB := median("base", base[wl.Name], m)
			mh, errH := median("head", head[wl.Name], m)
			if errB != nil || errH != nil {
				fail("%s %s: %v", wl.Name, m.Name, errors.Join(errB, errH))
				continue
			}
			status := "ok"
			if worse(mb, mh, m) {
				status = "FAIL"
				fail("%s %s: head median %.6g %s is worse than base median %.6g by more than %g",
					wl.Name, m.Name, mh, m.Unit, mb, m.Bound)
			}
			fmt.Fprintf(w, "%-7s %-20s base %12.6g  head %12.6g %-7s  %+7.1f%%  (%s is better, bound %g)  %s\n",
				wl.Name, m.Name, mb, mh, m.Unit, (mh/mb-1)*100, m.Better, m.Bound, status)
		}
	}
	sort.Strings(failed)
	return failed
}

// median of metric m over one side's runs, each of which must report it
// in m's unit; the mean of the middle two for an even count.
func median(side string, rs []result, m metricSpec) (float64, error) {
	if len(rs) == 0 {
		return 0, fmt.Errorf("no %s runs", side)
	}
	xs := make([]float64, 0, len(rs))
	for i, r := range rs {
		v, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			return 0, fmt.Errorf("%s run %d lacks the metric", side, i+1)
		case v.Unit != m.Unit:
			return 0, fmt.Errorf("%s run %d reports it in %q, not %q", side, i+1, v.Unit, m.Unit)
		}
		xs = append(xs, v.Value)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2], nil
	}
	return (xs[n/2-1] + xs[n/2]) / 2, nil
}

// worse reports whether head is worse than base by more than m's bound
// in m's better direction; exactly at the bound passes.
func worse(base, head float64, m metricSpec) bool {
	if m.Better == "lower" {
		return head > base*(1+m.Bound)
	}
	return head < base*(1-m.Bound)
}

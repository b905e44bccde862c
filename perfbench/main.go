// Command perfbench is the repository's benchmark of record. It drives
// the simulator and the dirsimd service through their public packages on
// three workloads — replay, serve and fleet — checks every output, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload serve --seed 3 --seconds 10 --trace 0
//
// --trace 0 measures the named workload untraced and reports its
// end-to-end metrics. --trace 1 is the separate traced run: it runs all
// three workloads from the same seed with spans recorded around every
// timed call, runs the isolated per-layer probes, writes one merged span
// file, validates it with cmd/tracecheck, and reports the per-layer
// metrics. All times are host time. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// setupReps is how many times replay repeats its set-up, and
	// daemonSetupReps how many times serve and fleet start their daemons;
	// the median is reported, so one slow repetition does not move
	// setup_s. Daemon start-up takes a millisecond or two and varies
	// by half from one repetition to the next, so it repeats more to
	// steady the median.
	setupReps       = 9
	daemonSetupReps = 101
	// minSamples is the fewest requests a workload times, whatever
	// --seconds says: one more than the tail rule needs.
	minSamples = minBeyond + 1
)

// env is what every workload receives: the seed, the run length, the
// client concurrency and where scratch files go.
type env struct {
	seed       int64
	duration   time.Duration
	nproc      int
	work       string
	tracecheck string
	traced     bool
	spans      *spanSet
}

// report is one workload's outcome.
type report struct {
	name  string
	setup []time.Duration
	// windows are the timed phase's units of repetition: replay passes,
	// serve epochs, fleet rounds. Rates are the median over windows, so a
	// slow spell of the machine that covers less than half of a run does
	// not move them.
	windows []window
	// cells counts every cell result delivered.
	cells          int
	req, cold, hit latencies
	tally          *tally
	layers         metrics
	// rssMB is the process's peak resident memory at a fixed point of
	// the timed phase (replay: its end; serve: a fixed request count;
	// fleet: a fixed round), before the correctness checks, which would
	// otherwise set it.
	rssMB float64
	// docBytes is the size of one answer document (serve only), the
	// size the cache-file write probe uses.
	docBytes int
}

func newReport(name string) *report {
	return &report{name: name, tally: newTally(), layers: metrics{}}
}

// window is one unit of a timed phase.
type window struct {
	// dur is the window's length; simDur is the part of it that
	// simulated (all of it, except fleet phase 2).
	dur, simDur time.Duration
	// cells counts cell results delivered; engineRefs counts references
	// × schemes simulated.
	cells      int
	engineRefs float64
}

// perWindow is the median over windows of f.
func (r *report) perWindow(f func(w window) float64) float64 {
	xs := make([]float64, len(r.windows))
	for i, w := range r.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

var workloads = map[string]func(context.Context, *env) (*report, error){
	"replay": runReplay,
	"serve":  runServe,
	"fleet":  runFleet,
}

func main() {
	workload := flag.String("workload", "", "workload to run: replay, serve or fleet")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 10, "how long the timed phase runs")
	traced := flag.Int("trace", 0, "1 = traced run with per-layer metrics, 0 = untraced end-to-end run")
	work := flag.String("work", ".bench_build", "directory for scratch files and span output")
	tracecheck := flag.String("tracecheck", "", "cmd/tracecheck binary that validates the span file; required with --trace 1")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || (*traced == 1 && *tracecheck == "") {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload replay|serve|fleet --seed N --seconds S --trace 0|1 [--tracecheck BIN, required with --trace 1]")
		os.Exit(2)
	}
	e := &env{
		seed:       *seed,
		duration:   time.Duration(*seconds) * time.Second,
		nproc:      runtime.NumCPU(),
		work:       *work,
		tracecheck: *tracecheck,
		traced:     *traced == 1,
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatal(err)
	}
	ctx := context.Background()
	var res result
	var err error
	if e.traced {
		res, err = tracedSuite(ctx, e, *workload)
	} else {
		var rep *report
		rep, err = run(ctx, e)
		if err == nil {
			res = endToEnd(rep)
		}
	}
	if err != nil {
		fatal(err)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// endToEnd turns an untraced report into the end-to-end metrics, printing
// each with its unit and the figures behind the tail and failure rules.
func endToEnd(rep *report) result {
	m := metrics{}
	m.set("setup_s", medianDur(rep.setup), "s")
	m.set("engine_mrefs_per_s", rep.perWindow(func(w window) float64 { return w.engineRefs / w.simDur.Seconds() / 1e6 }), "Mrefs/s")
	m.set("cells_per_s", rep.perWindow(func(w window) float64 { return float64(w.cells) / w.dur.Seconds() }), "1/s")
	m.set("req_p50_ms", rep.req.median(), "ms")
	m.set("cold_p50_ms", rep.cold.median(), "ms")
	m.set("max_rss_mb", rep.rssMB, "MB")
	pct, tail := tailValue(&rep.req)
	fmt.Printf("%s: req_tail_ms %.4f ms is p%.2f of %d requests (%d failed), %d beyond it\n",
		rep.name, tail, pct, rep.req.count(), rep.req.failed, minBeyond)
	fmt.Printf("%s: cold requests %d, hit requests %d\n", rep.name, rep.cold.count(), rep.hit.count())
	if rep.hit.count() > 0 {
		fmt.Printf("%s: hit_p50_ms %.4f ms\n", rep.name, rep.hit.median())
	}
	fmt.Printf("%s: failed_frac %.6f (%d of %d attempted)\n", rep.name, rep.tally.frac(), rep.tally.failed, rep.tally.attempted)
	for _, r := range rep.tally.reasons {
		fmt.Printf("%s: FAILED %s\n", rep.name, r)
	}
	printMetrics(rep.name, m)
	return result{
		Correct:   rep.tally.failed == 0,
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed,
		Metrics:   m,
	}
}

// tailValue applies the tail rule, falling back to the maximum (p100)
// when too few samples support a percentile with minBeyond beyond it.
func tailValue(l *latencies) (pct, v float64) {
	if pct, v, ok := l.tail(); ok {
		return pct, v
	}
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 100, 0
	}
	return 100, s[len(s)-1]
}

// printMetrics prints one line per metric, sorted by name.
func printMetrics(prefix string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s: %-40s %14.6f %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}

func printResult(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// maxRSSMB is the peak resident memory of this process so far, daemons
// included.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

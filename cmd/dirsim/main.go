// Command dirsim runs cache-coherence schemes over a multiprocessor
// address trace — from a file or generated on the fly — and reports bus
// cycles per reference, event frequencies, and the invalidation fan-out.
//
// Usage:
//
//	dirsim -workload pops -refs 500000 -schemes dir1nb,dir0b,dragon
//	dirsim -trace pops.trc -schemes dir0b,dirnnb -events
//	dirsim -workload thor -drop-locks -schemes dir1nb
//	dirsim -workload pops -finite 64x4 -schemes dir0b
//	dirsim -workload pops -refs 5000000 -parallel 4 -progress -timeout 60s
//	dirsim -workload pops -schemes dir1b -trace-out run.json -spans
package main

import (
	"compress/gzip"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"dirsim/internal/atomicio"
	"dirsim/internal/bus"
	"dirsim/internal/coherence"
	"dirsim/internal/flight"
	"dirsim/internal/obs"
	"dirsim/internal/report"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dirsim: ")
	traceFile := flag.String("trace", "", "binary trace file to simulate (overrides -workload)")
	workload := flag.String("workload", "pops", "workload preset when no -trace given: pops, thor or pero")
	refs := flag.Int("refs", 500_000, "references to generate for -workload")
	schemes := flag.String("schemes", "dir1nb,wti,dir0b,dragon", "comma-separated schemes to simulate")
	cpus := flag.Int("cpus", 4, "number of caches")
	finite := flag.String("finite", "", "finite cache geometry SETSxWAYS (e.g. 64x4); empty = infinite")
	dropLocks := flag.Bool("drop-locks", false, "exclude spin-lock test reads (Section 5.2)")
	byProcess := flag.Bool("by-process", false, "attribute references to per-process caches")
	events := flag.Bool("events", false, "print the Table 4 event-frequency table")
	fanout := flag.Bool("fanout", false, "print the Figure 1 invalidation fan-out histogram")
	q := flag.Float64("q", 0, "fixed bus cycles added per transaction (Section 5.1)")
	csvOut := flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
	md := flag.Bool("md", false, "render tables as Markdown")
	latency := flag.Bool("latency", false, "also print average memory access time (Section 5.1's metric)")
	numaNodes := flag.Int("numa", 0, "also simulate a distributed full-map directory with N nodes (message-level)")
	numaHome := flag.String("home", "interleaved", "NUMA home policy: interleaved or firsttouch")
	parallel := flag.Int("parallel", 1, "engine worker goroutines (1 = sequential; results are identical)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	progress := flag.Bool("progress", false, "report throughput on stderr while simulating")
	pprofFile := flag.String("pprof", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceOut := flag.String("trace-out", "", "write a flight trace here (.json = Chrome trace for Perfetto, .ndjson = one event per line)")
	traceSample := flag.Int("trace-sample", flight.DefaultSample, "with -trace-out, record every Nth reference's protocol events (0 = spans only)")
	spans := flag.Bool("spans", false, "with -trace-out, also record decode/simulate/fan-out/report phase spans")
	flag.Parse()

	// A signal cancels the run between batches; the explicit stopProfiles
	// calls below (not defers — log.Fatal skips defers) then flush the
	// partial profiles before exit.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	stopProfiles, err := startProfiles(*pprofFile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	var rec *flight.Recorder
	if *traceOut != "" {
		rec = flight.New(flight.Options{Sample: *traceSample, Spans: *spans, Label: "dirsim"})
	}
	// flush lands every run-scoped artifact — the trace written so far
	// and the profiles — exactly once, so an interrupted run still
	// leaves analyzable output. Explicit on every exit path, never a
	// defer: log.Fatal skips defers.
	var flushOnce sync.Once
	var flushErr error
	flush := func() error {
		flushOnce.Do(func() {
			if rec != nil {
				if err := flight.WriteFile(*traceOut, rec); err != nil {
					flushErr = err
				}
			}
			if err := stopProfiles(); err != nil && flushErr == nil {
				flushErr = err
			}
		})
		return flushErr
	}
	fatal := func(err error) {
		flush() //nolint:errcheck // already failing; the run error wins
		log.Fatal(err)
	}
	if err := run(ctx, os.Stdout, options{
		traceFile: *traceFile, workload: *workload, refs: *refs,
		schemes: *schemes, cpus: *cpus, finite: *finite,
		dropLocks: *dropLocks, byProcess: *byProcess,
		events: *events, fanout: *fanout, csvOut: *csvOut, markdown: *md,
		latency: *latency, q: *q,
		numaNodes: *numaNodes, numaHome: *numaHome,
		parallel: *parallel, progress: *progress, progressW: os.Stderr,
		recorder: rec,
	}); err != nil {
		fatal(err)
	}
	if err := flush(); err != nil {
		log.Fatal(err)
	}
}

// startProfiles starts the optional CPU profile and arranges the optional
// heap profile. The returned stop flushes both through atomicio and is
// idempotent, so every exit path can call it explicitly; nothing here is
// deferred because log.Fatal does not run defers.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *atomicio.File
	if cpuPath != "" {
		cpuFile, err = atomicio.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Abort()
			return nil, err
		}
	}
	var once sync.Once
	var stopErr error
	stop = func() error {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Commit(); err != nil {
					stopErr = err
				}
			}
			if memPath == "" {
				return
			}
			mf, err := atomicio.Create(memPath)
			if err != nil {
				if stopErr == nil {
					stopErr = err
				}
				return
			}
			runtime.GC() // settle allocation stats before snapshotting the heap
			if err := pprof.WriteHeapProfile(mf); err != nil {
				mf.Abort()
				if stopErr == nil {
					stopErr = err
				}
				return
			}
			if err := mf.Commit(); err != nil && stopErr == nil {
				stopErr = err
			}
		})
		return stopErr
	}
	return stop, nil
}

// options collects the command's flags.
type options struct {
	traceFile, workload    string
	refs, cpus             int
	schemes, finite        string
	dropLocks, byProcess   bool
	events, fanout, csvOut bool
	markdown               bool
	latency                bool
	q                      float64
	numaNodes              int
	numaHome               string
	parallel               int
	progress               bool
	progressW              io.Writer
	recorder               *flight.Recorder
}

func run(ctx context.Context, w io.Writer, o options) error {
	rd, err := openTrace(o.traceFile, o.workload, o.refs)
	if err != nil {
		return err
	}
	if o.dropLocks {
		rd = trace.DropLockSpins(rd)
	}
	cfg := coherence.Config{Caches: o.cpus}
	if o.finite != "" {
		if _, err := fmt.Sscanf(o.finite, "%dx%d", &cfg.FiniteSets, &cfg.FiniteWays); err != nil {
			return fmt.Errorf("bad -finite %q (want SETSxWAYS): %v", o.finite, err)
		}
	}
	opts := sim.Options{Parallel: o.parallel, Recorder: o.recorder}
	if o.byProcess {
		opts.CacheBy = sim.ByProcess
	}
	if o.progress {
		pw := o.progressW
		if pw == nil {
			pw = os.Stderr
		}
		m := obs.NewMetrics()
		start := time.Now()
		th := obs.NewThrottle(200*time.Millisecond, func() int64 { return time.Now().UnixNano() })
		opts.OnProgress = func(n int) {
			m.AddRefs(uint64(n))
			if th.Ready() {
				s := m.Snapshot()
				fmt.Fprintf(pw, "\r%d refs (%.0f refs/s) ", s.Refs, s.RefsPerSec(time.Since(start)))
			}
		}
		defer fmt.Fprintln(pw)
	}
	names := strings.Split(o.schemes, ",")
	results, err := sim.RunSchemes(ctx, rd, names, cfg, opts)
	if err != nil {
		return err
	}

	pip, np := bus.Pipelined(), bus.NonPipelined()
	if o.csvOut {
		return report.WriteCSV(w, results, pip, np)
	}
	tb := report.NewTable("bus cycles per memory reference",
		"Scheme", "pipelined", "non-pipelined", "cycles/txn", "txns/1k refs")
	for _, r := range results {
		tb.AddRow(r.Scheme,
			fmt.Sprintf("%.4f", r.CyclesPerRefWithOverhead(pip, o.q)),
			fmt.Sprintf("%.4f", r.CyclesPerRefWithOverhead(np, o.q)),
			fmt.Sprintf("%.2f", r.CyclesPerTransaction(pip)),
			fmt.Sprintf("%.1f", float64(r.Stats.Transactions)/float64(r.Stats.Refs)*1000))
	}
	render := func(t *report.Table) string {
		if o.markdown {
			return t.RenderMarkdown()
		}
		return t.Render()
	}
	fmt.Fprint(w, render(tb))
	if o.latency {
		lm := pip.Latency(1, 1)
		lt := report.NewTable("average memory access time (processor cycles per reference; hit=1, overhead=1)",
			"Scheme", "cycles")
		for _, r := range results {
			lt.AddRow(r.Scheme, fmt.Sprintf("%.4f", r.AvgAccessTime(lm)))
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, render(lt))
	}
	if o.events {
		fmt.Fprintln(w)
		fmt.Fprint(w, report.Table4(results))
	}
	if o.fanout {
		for _, r := range results {
			if r.Stats.InvalFanout.Total() > 0 {
				fmt.Fprintln(w)
				fmt.Fprint(w, report.Figure1(r))
			}
		}
	}
	if o.numaNodes > 0 {
		ncfg := coherence.NUMAConfig{Nodes: o.numaNodes}
		switch strings.ToLower(o.numaHome) {
		case "interleaved":
			ncfg.Policy = coherence.Interleaved
		case "firsttouch", "first-touch":
			ncfg.Policy = coherence.FirstTouch
		default:
			return fmt.Errorf("unknown -home %q (want interleaved or firsttouch)", o.numaHome)
		}
		eng, err := coherence.NewNUMA(ncfg)
		if err != nil {
			return err
		}
		rd2, err := openTrace(o.traceFile, o.workload, o.refs)
		if err != nil {
			return err
		}
		if o.dropLocks {
			rd2 = trace.DropLockSpins(rd2)
		}
		if _, err := sim.Run(ctx, rd2, []coherence.Engine{eng}, sim.Options{}); err != nil {
			return err
		}
		st := eng.NUMAStats()
		nt := report.NewTable(fmt.Sprintf("distributed full-map directory, %d nodes, %s homes", o.numaNodes, ncfg.Policy),
			"metric", "value")
		nt.AddRow("messages/ref", fmt.Sprintf("%.4f", st.MessagesPerRef()))
		nt.AddRow("critical hops/ref", fmt.Sprintf("%.4f", st.CriticalHopsPerRef()))
		nt.AddRow("local-home fraction", fmt.Sprintf("%.2f", st.LocalHomeFraction()))
		nt.AddRow("3-hop misses", fmt.Sprintf("%d", st.ThreeHopMisses))
		nt.AddRow("invalidations", fmt.Sprintf("%d", st.Invalidations))
		fmt.Fprintln(w)
		fmt.Fprint(w, render(nt))
	}
	if o.recorder != nil && len(results) > 0 {
		// The report phase follows the simulated stream: a span starting
		// at the last reference ordinal, one tick per reported scheme.
		// Track 0 is the sim driver's.
		refs := results[0].Stats.Refs
		o.recorder.Span(0, "report", refs, refs+uint64(len(results)))
	}
	return nil
}

func openTrace(traceFile, workload string, refs int) (trace.Reader, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		// The file stays open for the life of the process; the OS
		// reclaims it on exit.
		if strings.HasSuffix(traceFile, ".gz") {
			zr, err := gzip.NewReader(f)
			if err != nil {
				return nil, fmt.Errorf("open %s: %w", traceFile, err)
			}
			return trace.NewBinaryReader(zr), nil
		}
		return trace.NewBinaryReader(f), nil
	}
	switch strings.ToLower(workload) {
	case "pops":
		return tracegen.New(tracegen.POPS(refs))
	case "thor":
		return tracegen.New(tracegen.THOR(refs))
	case "pero":
		return tracegen.New(tracegen.PERO(refs))
	default:
		return nil, fmt.Errorf("unknown workload %q (want pops, thor or pero)", workload)
	}
}

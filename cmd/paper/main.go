// Command paper regenerates every table and figure of the paper's
// evaluation in one run: Tables 1-5, Figures 1-5, the Section 5.1 fixed-
// overhead study, the Section 5.2 spin-lock study, and the Section 6
// scalability alternatives, using the three synthetic workloads that stand
// in for the POPS/THOR/PERO ATUM traces.
//
// The report is assembled from independent sections run under a failure
// boundary: a section that errors or panics prints a bracketed note in
// its place and lands in the failure manifest, sections that depend on
// its outputs skip themselves, and everything else still renders. A
// degraded report exits nonzero.
//
// Usage:
//
//	paper [-refs N] [-cpus N] [-parallel N] [-progress] [-timeout D]
//	paper -o report.txt -manifest failures.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"dirsim/internal/atomicio"
	"dirsim/internal/bus"
	"dirsim/internal/cellexec"
	"dirsim/internal/cluster"
	"dirsim/internal/coherence"
	"dirsim/internal/directory"
	"dirsim/internal/flight"
	"dirsim/internal/obs"
	"dirsim/internal/queueing"
	"dirsim/internal/remote"
	"dirsim/internal/report"
	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
	"dirsim/internal/study"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	refs := flag.Int("refs", 1_000_000, "references per synthetic trace")
	cpus := flag.Int("cpus", 4, "number of processors")
	parallel := flag.Int("parallel", 1, "concurrent simulation jobs (1 = sequential)")
	timeout := flag.Duration("timeout", 0, "abort the reproduction after this long (0 = no limit)")
	retries := flag.Int("retries", 2, "with -remote: extra attempts when the daemon answers 429 or 503")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "with -remote: backoff before the first retry (doubles per attempt, jittered)")
	out := flag.String("o", "-", "output report file (written atomically), or - for stdout")
	manifest := flag.String("manifest", "", "write a JSON failure manifest to this file")
	remoteURL := flag.String("remote", "", "run simulation cells on a dirsimd daemon at this base URL instead of locally")
	failSection := flag.String("fail-section", "", "inject a panic into the named section (fault-injection testing)")
	progress := flag.Bool("progress", false, "report job and throughput counts on stderr")
	pprofFile := flag.String("pprof", "", "write a CPU profile to this file")
	traceOut := flag.String("trace-out", "", "write a flight trace of every simulation job here (.json = Chrome trace, .ndjson = one event per line)")
	traceSample := flag.Int("trace-sample", flight.DefaultSample, "with -trace-out, record every Nth reference's protocol events (0 = spans only)")
	spans := flag.Bool("spans", false, "with -trace-out, also record run-phase spans")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *pprofFile != "" {
		pf, err := atomicio.Create(*pprofFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Abort()
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := pf.Commit(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	var progressW io.Writer
	if *progress {
		progressW = os.Stderr
	}
	o := options{
		refs: *refs, cpus: *cpus, parallel: *parallel,
		retries: *retries, retryBase: *retryBase, sleep: time.Sleep,
		manifest: *manifest, failSection: *failSection,
		remote:    *remoteURL,
		progressW: progressW,
		traceOut:  *traceOut, traceSample: *traceSample, spans: *spans,
	}

	var w io.Writer = os.Stdout
	var af *atomicio.File
	if *out != "-" {
		f, err := atomicio.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		af = f
		w = f
	}
	err := run(ctx, w, o)
	switch {
	case err == nil:
		if af != nil {
			if cerr := af.Commit(); cerr != nil {
				log.Fatal(cerr)
			}
		}
	case errors.Is(err, errDegraded):
		// A degraded report is still a report: commit it, then exit
		// nonzero.
		if af != nil {
			if cerr := af.Commit(); cerr != nil {
				log.Fatal(cerr)
			}
		}
		log.Print(err)
		os.Exit(1)
	default:
		if af != nil {
			af.Abort()
		}
		log.Fatal(err)
	}
}

// errDegraded marks a report that rendered with failed sections.
var errDegraded = errors.New("degraded report")

// options collects the command's flags.
type options struct {
	refs, cpus, parallel int
	retries              int
	retryBase            time.Duration
	sleep                func(time.Duration)
	manifest             string
	failSection          string
	remote               string
	progressW            io.Writer

	traceOut    string
	traceSample int
	spans       bool
}

// section3Schemes are the head-to-head protocols, in the paper's column
// order, plus the Berkeley estimate used in the Table 5 discussion.
var section3Schemes = []string{"dir1nb", "wti", "dir0b", "dragon"}

// errPrereq marks a section skipped because an earlier section it feeds
// from failed; skips are noted in the report but are not failures
// themselves — the manifest records only the root cause.
var errPrereq = errors.New("prerequisite section failed")

// sections runs the report's blocks in order, containing each one's
// failure: a panicking or erroring section becomes a bracketed note in
// the report and a manifest entry, and the remaining sections still run.
// Context cancellation is fatal and stops the remaining sections.
type sections struct {
	ctx   context.Context
	w     io.Writer
	man   *runner.Manifest
	brk   string // section name forced to panic (fault injection)
	fatal error
	n     int
}

// do runs one named section under the failure boundary.
func (s *sections) do(name string, f func() error) {
	idx := s.n
	s.n++
	if s.fatal != nil {
		return
	}
	if s.ctx.Err() != nil {
		s.fatal = context.Cause(s.ctx)
		return
	}
	err := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &runner.PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		if s.brk == name {
			panic(fmt.Sprintf("injected section failure (%s)", name))
		}
		return f()
	}()
	switch {
	case err == nil:
	case errors.Is(err, errPrereq):
		fmt.Fprintf(s.w, "[%s skipped: %v]\n\n", name, err)
	case s.ctx.Err() != nil:
		s.fatal = err
	default:
		s.man.Record(idx, name, err)
		fmt.Fprintf(s.w, "[%s failed: %v]\n\n", name, err)
	}
}

// combineAcross merges per-preset results scheme by scheme — the paper's
// reference-weighted average "across the three traces".
func combineAcross(perTrace [][]sim.Result) ([]sim.Result, error) {
	if len(perTrace) == 0 {
		return nil, nil
	}
	combined := make([]sim.Result, len(perTrace[0]))
	for si := range combined {
		group := make([]sim.Result, len(perTrace))
		for ti := range perTrace {
			group[ti] = perTrace[ti][si]
		}
		c, err := sim.Combine(group)
		if err != nil {
			return nil, err
		}
		combined[si] = c
	}
	return combined, nil
}

func run(ctx context.Context, w io.Writer, o options) error {
	refs, cpus := o.refs, o.cpus
	timing := bus.DefaultTiming()
	pip, np := timing.Pipelined(), timing.NonPipelined()
	cfg := coherence.Config{Caches: cpus}
	if cpus < 1 {
		return fmt.Errorf("cpus must be positive")
	}
	presets := tracegen.Presets(refs)
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.Name
	}

	// All experiment fan-out goes through one runner configuration; with
	// progress enabled the pool reports on progressW at batch granularity.
	ropts := runner.Options{Workers: o.parallel}
	if o.progressW != nil {
		m := obs.NewMetrics()
		start := time.Now()
		th := obs.NewThrottle(200*time.Millisecond, func() int64 { return time.Now().UnixNano() })
		ropts.Metrics = m
		ropts.Progress = func() {
			if th.Ready() {
				s := m.Snapshot()
				fmt.Fprintf(o.progressW, "\rjobs %d/%d  %d refs (%.0f refs/s) ",
					s.JobsDone, s.JobsTotal, s.Refs, s.RefsPerSec(time.Since(start)))
			}
		}
		defer fmt.Fprintln(o.progressW)
	}

	// Every cell-shaped section executes through one seam: locally on
	// the runner pool, or with -remote on a dirsimd daemon as a one-peer
	// fleet, -parallel cells in flight. The daemon deduplicates cells by
	// content hash, so re-rendering a report is nearly free. Trace-
	// analysis and queueing-model sections have no simulation to ship.
	var traces *cellexec.Traces
	if o.traceOut != "" {
		if o.remote != "" {
			return fmt.Errorf("-remote cannot be combined with -trace-out: run the daemon with -trace-sample and fetch /v1/jobs/{id}/trace instead")
		}
		traces = &cellexec.Traces{Sample: o.traceSample, Spans: o.spans}
	}
	executor := cellexec.Local(ropts, traces, nil)
	if o.remote != "" {
		mem := cluster.Membership{Peers: []cluster.Peer{{Addr: o.remote}}}
		health := cluster.NewHealth()
		executor = cellexec.Fleet(&cluster.Client{
			Membership: mem,
			Router:     cluster.NewRouter(mem, health),
			Health:     health,
			APIKey:     os.Getenv("DIRSIM_API_KEY"),
			Retry:      remote.RetryPolicy{Max: o.retries + 1, Base: o.retryBase, Seed: 1},
			Sleep:      o.sleep,
		}, o.parallel)
	}
	exec := func(ctx context.Context, cells []spec.Cell) ([][]sim.Result, error) {
		return cellexec.Collect(ctx, executor, cells)
	}

	fmt.Fprintf(w, "Reproduction of: An Evaluation of Directory Schemes for Cache Coherence\n")
	fmt.Fprintf(w, "Agarwal, Simoni, Hennessy, Horowitz (ISCA 1988)\n")
	fmt.Fprintf(w, "Synthetic workloads: %d refs each, %d CPUs, %d-byte blocks\n\n",
		refs, cpus, trace.DefaultBlockBytes)

	fmt.Fprintln(w, report.Table1(timing))
	fmt.Fprintln(w, report.Table2(timing))

	s := &sections{ctx: ctx, w: w, man: runner.NewManifest("paper", 0), brk: o.failSection}

	// Table 3: trace characteristics.
	s.do("table3", func() error {
		var stats []trace.Stats
		for _, p := range presets {
			g, err := tracegen.New(p)
			if err != nil {
				return err
			}
			st, err := trace.CollectStats(g, trace.DefaultBlockBytes)
			if err != nil {
				return err
			}
			stats = append(stats, st)
		}
		fmt.Fprintln(w, report.Table3(names, stats))
		return nil
	})

	// One lockstep run per trace over the Section 3 schemes + Berkeley,
	// fanned out across presets on the runner pool. Nearly every later
	// section reads these results, so its failure cascades as skips.
	var perTrace [][]sim.Result
	var combined, core []sim.Result
	var dir0b sim.Result
	s.do("core-runs", func() error {
		var err error
		perTrace, err = exec(ctx, presetCells(presets, "",
			append(append([]string{}, section3Schemes...), "berkeley"), cfg, spec.Sim{}))
		if err != nil {
			return err
		}
		combined, err = combineAcross(perTrace)
		if err != nil {
			return err
		}
		core = combined[:len(section3Schemes)] // without Berkeley
		dir0b = combined[2]

		fmt.Fprintln(w, report.Table4(core))
		fmt.Fprintln(w, report.Table4Legend())
		// Figure 1 uses the multiple-copy state-change model; Dir0B's
		// histogram is the canonical one (WTI's is identical).
		fmt.Fprintln(w, report.Figure1(combined[2]))
		fmt.Fprintln(w, report.Figure2(core, pip, np))
		coreByTrace := make([][]sim.Result, len(perTrace))
		for ti := range perTrace {
			coreByTrace[ti] = perTrace[ti][:len(section3Schemes)]
		}
		fmt.Fprintln(w, report.Figure3(names, coreByTrace, pip, np))
		fmt.Fprintln(w, report.Table5(combined, pip))
		fmt.Fprintln(w, report.Figure4(core, pip))
		fmt.Fprintln(w, report.Figure5(core, pip))
		return nil
	})
	needCore := func() error {
		if combined == nil {
			return fmt.Errorf("%w: core-runs", errPrereq)
		}
		return nil
	}

	// Section 5: directory vs memory bandwidth, effective processors,
	// fixed per-transaction overhead, and the latency view.
	s.do("section5", func() error {
		if err := needCore(); err != nil {
			return err
		}
		fmt.Fprintf(w, "Section 5: Dir0B directory/memory bandwidth ratio: %.2f\n", dir0b.DirToMemBandwidthRatio())
		best := core[len(core)-1].CyclesPerRef(pip) // Dragon
		fmt.Fprintf(w, "Section 5: effective processors at 10 MIPS, 100 ns bus, best scheme: %.1f\n\n",
			bus.EffectiveProcessors(best, 2, 10, 100))

		// Section 5.1: fixed per-transaction overhead.
		fmt.Fprintln(w, report.Section51([]sim.Result{dir0b, core[3]}, pip, []float64{0, 1, 2, 4}))

		// Section 5.1's preferred metric: average memory access time as
		// seen by the processor (hit = 1 cycle, fixed per-transaction
		// overhead = 1 cycle).
		lat := report.NewTable("Section 5.1: average memory access time (cycles/ref; hit=1, overhead=1)",
			"Scheme", "latency", "bus cycles/ref")
		for _, r := range core {
			lat.AddRow(r.Scheme,
				fmt.Sprintf("%.4f", r.AvgAccessTime(pip.Latency(1, 1))),
				fmt.Sprintf("%.4f", r.CyclesPerRef(pip)))
		}
		fmt.Fprintln(w, lat.Render())
		return nil
	})

	// Section 5.2: spin locks. Rerun Dir1NB and Dir0B with lock-test
	// reads filtered out.
	s.do("section52", func() error {
		if err := needCore(); err != nil {
			return err
		}
		with := []sim.Result{combined[0], dir0b}
		withoutGroups, err := exec(ctx, presetCells(presets, "droplockspins",
			[]string{"dir1nb", "dir0b"}, cfg, spec.Sim{}))
		if err != nil {
			return err
		}
		without, err := combineAcross(withoutGroups)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Section52(with, without, pip))
		return nil
	})

	// Section 6: scalability alternatives, all in one lockstep run per
	// preset, plus the Dir1B broadcast-cost sweep over the same results.
	s.do("section6", func() error {
		sec6Schemes := []string{"dir0b", "dirnnb", "dir1b", "dir2b", "dir2nb", "dir4nb", "codedset"}
		sec6Groups, err := exec(ctx, presetCells(presets, "", sec6Schemes, cfg, spec.Sim{}))
		if err != nil {
			return err
		}
		sec6, err := combineAcross(sec6Groups)
		if err != nil {
			return err
		}
		tb := report.NewTable("Section 6: directory alternatives (pipelined bus)",
			"Scheme", "cycles/ref", "miss rate %", "bcast/1k refs", "wasted inv/1k refs", "ptr evict/1k refs")
		for _, r := range sec6 {
			per1k := func(v uint64) string {
				return fmt.Sprintf("%.2f", float64(v)/float64(r.Stats.Refs)*1000)
			}
			tb.AddRow(r.Scheme,
				fmt.Sprintf("%.4f", r.CyclesPerRef(pip)),
				fmt.Sprintf("%.2f", r.Stats.Events.DataMissRate()*100),
				per1k(r.Stats.BroadcastInvals),
				per1k(r.Stats.WastedInvals),
				per1k(r.Stats.PointerEvictions))
		}
		fmt.Fprintln(w, tb.Render())

		// Section 6: Dir1B broadcast-cost sweep (the paper's 0.0485 +
		// 0.0006·b linear model, regenerated by pricing the same run under
		// varying b).
		dir1b := sec6[2]
		sweep := report.NewTable("Section 6: Dir1B cycles/ref as broadcast cost b varies",
			"b", "cycles/ref")
		for _, b := range []float64{1, 2, 4, 8, 16, 32} {
			sweep.AddRow(fmt.Sprintf("%.0f", b),
				fmt.Sprintf("%.4f", dir1b.CyclesPerRef(pip.WithBroadcastCost(b))))
		}
		fmt.Fprintln(w, sweep.Render())
		return nil
	})

	// Ablation: directory storage overhead per organisation.
	s.do("storage", func() error {
		storage := report.NewTable("Ablation: directory storage (bits per memory block equivalents)",
			"Organisation", "n=4", "n=16", "n=64", "n=256")
		type org struct {
			name string
			mk   func(n int) (directory.Store, error)
		}
		orgs := []org{
			{"full-map (DirnNB)", func(n int) (directory.Store, error) { return directory.NewFullMap(n), nil }},
			{"Tang duplicate", func(n int) (directory.Store, error) { return directory.NewTang(n), nil }},
			{"two-bit (Dir0B)", func(n int) (directory.Store, error) { return directory.NewTwoBit(), nil }},
			{"Dir1B pointers", func(n int) (directory.Store, error) {
				return directory.NewLimitedPointer(1, n, true)
			}},
			{"Dir4B pointers", func(n int) (directory.Store, error) {
				return directory.NewLimitedPointer(4, n, true)
			}},
			{"coded-set", func(n int) (directory.Store, error) {
				return directory.NewCodedSet(n)
			}},
		}
		for _, o := range orgs {
			cells := []string{o.name}
			for _, n := range []int{4, 16, 64, 256} {
				p := directory.DefaultStorageParams(n)
				st, err := o.mk(n)
				if err != nil {
					return err
				}
				bits := st.StorageBits(p)
				cells = append(cells, fmt.Sprintf("%.1f", float64(bits)/float64(p.MemoryBlocks)))
			}
			storage.AddRow(cells...)
		}
		fmt.Fprintln(w, storage.Render())
		return nil
	})

	// Extension: the full protocol zoo, including the referenced snoopy
	// protocols (Goodman write-once, Illinois MESI, Firefly).
	s.do("zoo", func() error {
		zooSchemes := []string{"wti", "readbroadcast", "writeonce", "mesi", "moesi", "dragon", "firefly", "competitive4", "dir0b", "dirnnb"}
		zooGroups, err := exec(ctx, presetCells(presets, "", zooSchemes, cfg, spec.Sim{}))
		if err != nil {
			return err
		}
		zooCombined, err := combineAcross(zooGroups)
		if err != nil {
			return err
		}
		zoo := report.NewTable("Extension: the wider snoopy/directory protocol zoo (cycles/ref)",
			"Scheme", "pipelined", "non-pipelined")
		for _, c := range zooCombined {
			zoo.AddRow(c.Scheme,
				fmt.Sprintf("%.4f", c.CyclesPerRef(pip)),
				fmt.Sprintf("%.4f", c.CyclesPerRef(np)))
		}
		fmt.Fprintln(w, zoo.Render())
		return nil
	})

	// Extension: bus contention. The paper's effective-processor bound is
	// "optimistic … because we have not included the effects of bus
	// contention"; the closed queueing model supplies the refinement.
	// procCyclesPerRef = 0.5: a 10-MIPS processor on a 100 ns bus issues
	// one instruction (two references) per bus cycle.
	s.do("contention", func() error {
		if err := needCore(); err != nil {
			return err
		}
		cont := report.NewTable("Extension: bus contention (machine-repairman model, pipelined bus)",
			"Scheme", "naive bound", "eff procs @8", "eff procs @16", "eff procs @32", "knee(50%)")
		for _, r := range []sim.Result{dir0b, core[3]} {
			model, err := r.Contention(pip, 0.5)
			if err != nil {
				return err
			}
			ms, err := model.MVA(32)
			if err != nil {
				return err
			}
			knee, err := model.Knee(64, 0.5)
			if err != nil {
				return err
			}
			cont.AddRow(r.Scheme,
				fmt.Sprintf("%.1f", bus.EffectiveProcessors(r.CyclesPerRef(pip), 2, 10, 100)),
				fmt.Sprintf("%.1f", ms[7].EffectiveProcessors),
				fmt.Sprintf("%.1f", ms[15].EffectiveProcessors),
				fmt.Sprintf("%.1f", ms[31].EffectiveProcessors),
				fmt.Sprintf("%d", knee))
		}
		fmt.Fprintln(w, cont.Render())
		return nil
	})

	// Section 2's demanded measurement: "the dynamic numbers of caches
	// that contain a shared datum" — computed from the trace alone, with
	// no protocol model, plus the pointer-sufficiency view that justifies
	// small-i directories.
	s.do("sharing-profile", func() error {
		profTb := report.NewTable("Section 2/6: sharing profile (protocol-free, per trace)",
			"Trace", "shared blocks %", "writes fitting 1 ptr %", "2 ptrs %", "4 ptrs %")
		for _, p := range presets {
			g, err := tracegen.New(p)
			if err != nil {
				return err
			}
			prof, err := trace.Profile(g, trace.DefaultBlockBytes)
			if err != nil {
				return err
			}
			profTb.AddRow(p.Name,
				fmt.Sprintf("%.1f", prof.SharedBlockFraction()*100),
				fmt.Sprintf("%.1f", prof.PointerSufficiency(1)*100),
				fmt.Sprintf("%.1f", prof.PointerSufficiency(2)*100),
				fmt.Sprintf("%.1f", prof.PointerSufficiency(4)*100))
		}
		fmt.Fprintln(w, profTb.Render())
		return nil
	})

	// Footnote 5's open question: does the single-invalidation dominance
	// survive on machines larger than the traced four processors?
	s.do("footnote5", func() error {
		bigTb := report.NewTable("Footnote 5: Figure 1's claim on larger machines (POPS-like workloads)",
			"processors", "writes needing ≤1 inval %", "mean fan-out")
		bigSizes := []int{4, 8, 16, 32}
		bigCells := make([]spec.Cell, len(bigSizes))
		for i, n := range bigSizes {
			cfgBig := tracegen.POPS(refs)
			cfgBig.CPUs = n
			cfgBig.Locks = 1 + n/8
			bigCells[i] = spec.Cell{
				Trace:   cfgBig,
				Schemes: []string{"dir0b"},
				Machine: coherence.Config{Caches: n},
			}
		}
		bigRes, err := exec(ctx, bigCells)
		if err != nil {
			return err
		}
		for i, n := range bigSizes {
			h := &bigRes[i][0].Stats.InvalFanout
			bigTb.AddRow(fmt.Sprintf("%d", n),
				fmt.Sprintf("%.1f", h.CumulativeFraction(1)*100),
				fmt.Sprintf("%.2f", h.Mean()))
		}
		fmt.Fprintln(w, bigTb.Render())
		return nil
	})

	// Section 7: distributing memory and directory with the processors.
	// The model's think/service parameters come from the measured Dir0B
	// demand; the distributed machine adds a 2-cycle interconnect hop.
	s.do("section7-scaling", func() error {
		if err := needCore(); err != nil {
			return err
		}
		model, err := dir0b.Contention(pip, 0.5)
		if err != nil {
			return err
		}
		sizes := []int{2, 4, 8, 16, 32, 64}
		central, distributed, err := queueing.ScalingCurve(model.ThinkCycles, model.ServiceCycles, 2, sizes)
		if err != nil {
			return err
		}
		s7 := report.NewTable("Section 7: processor efficiency, central bus vs distributed directory (Dir0B demand)",
			"Processors", "central", "distributed")
		for i, n := range sizes {
			s7.AddRow(fmt.Sprintf("%d", n),
				fmt.Sprintf("%.2f", central[i]),
				fmt.Sprintf("%.2f", distributed[i]))
		}
		fmt.Fprintln(w, s7.Render())
		return nil
	})

	// Section 7 at message level: the distributed full-map directory's
	// interconnect demand under both home-assignment policies (POPS).
	s.do("section7-numa", func() error {
		nTb := report.NewTable("Section 7: message-level distributed directory (POPS)",
			"home policy", "msgs/ref", "critical hops/ref", "local homes", "3-hop misses/1k refs")
		// Both policies' engines see one generated trace in one run.
		policies := []coherence.HomePolicy{coherence.Interleaved, coherence.FirstTouch}
		var numas []*coherence.NUMAEngine
		var engines []coherence.Engine
		for _, policy := range policies {
			eng, err := coherence.NewNUMA(coherence.NUMAConfig{Nodes: cpus, Policy: policy})
			if err != nil {
				return err
			}
			numas, engines = append(numas, eng), append(engines, eng)
		}
		g, err := tracegen.New(tracegen.POPS(refs))
		if err != nil {
			return err
		}
		if _, err := sim.Run(ctx, g, engines, sim.Options{}); err != nil {
			return err
		}
		for i, eng := range numas {
			st := eng.NUMAStats()
			nTb.AddRow(policies[i].String(),
				fmt.Sprintf("%.4f", st.MessagesPerRef()),
				fmt.Sprintf("%.4f", st.CriticalHopsPerRef()),
				fmt.Sprintf("%.2f", st.LocalHomeFraction()),
				fmt.Sprintf("%.2f", float64(st.ThreeHopMisses)/float64(st.Refs)*1000))
		}
		fmt.Fprintln(w, nTb.Render())
		return nil
	})

	// Extension: spin primitive ablation — plain test-and-set turns every
	// spin probe into an invalidating write.
	s.do("spin-primitive", func() error {
		lockTb := report.NewTable("Extension: test-and-test-and-set vs test-and-set (POPS, cycles/ref)",
			"Scheme", "T&T&S", "T&S", "T&S penalty")
		tsCfg := tracegen.POPS(refs)
		tsCfg.LockKind = tracegen.TestAndSet
		lockSchemes := []string{"dir0b", "dragon"}
		// Cells alternate (T&T&S, T&S) per scheme: index 2i and 2i+1.
		var lockCells []spec.Cell
		for _, scheme := range lockSchemes {
			for _, genCfg := range []tracegen.Config{tracegen.POPS(refs), tsCfg} {
				lockCells = append(lockCells, spec.Cell{
					Trace:   genCfg,
					Schemes: []string{scheme},
					Machine: cfg,
				})
			}
		}
		lockRes, err := exec(ctx, lockCells)
		if err != nil {
			return err
		}
		for i := range lockSchemes {
			tts, ts := lockRes[2*i][0], lockRes[2*i+1][0]
			a, b := tts.CyclesPerRef(pip), ts.CyclesPerRef(pip)
			lockTb.AddRow(tts.Scheme,
				fmt.Sprintf("%.4f", a), fmt.Sprintf("%.4f", b), fmt.Sprintf("%.2fx", b/a))
		}
		fmt.Fprintln(w, lockTb.Render())
		return nil
	})

	// Ablation: sparse directories — a bounded directory entry cache
	// whose evictions invalidate the displaced block's copies. Directory
	// locality tracks cache locality, so a small fraction of entries
	// suffices. Size the capacities against the workload's working set.
	s.do("sparse-directory", func() error {
		wsGen, err := tracegen.New(tracegen.POPS(refs))
		if err != nil {
			return err
		}
		ws, err := trace.WorkingSets(wsGen, trace.DefaultBlockBytes, 100_000)
		if err != nil {
			return err
		}
		maxWS := 0
		for _, v := range ws {
			if v > maxWS {
				maxWS = v
			}
		}
		fmt.Fprintf(w, "POPS working set: max %d blocks per 100k data refs\n\n", maxWS)
		spTb := report.NewTable("Ablation: DirnNB on POPS vs sparse-directory capacity (cycles/ref)",
			"entries", "cycles/ref", "entry evictions/1k refs")
		sparseEntries := []int{256, 1024, 4096, 0}
		sparseCells := make([]spec.Cell, len(sparseEntries))
		for i, entries := range sparseEntries {
			sparseCells[i] = spec.Cell{
				Trace:   tracegen.POPS(refs),
				Schemes: []string{"dirnnb"},
				Machine: coherence.Config{Caches: cpus, DirEntries: entries},
			}
		}
		sparseRes, err := exec(ctx, sparseCells)
		if err != nil {
			return err
		}
		for i, entries := range sparseEntries {
			r := sparseRes[i][0]
			label := fmt.Sprintf("%d", entries)
			if entries == 0 {
				label = "memory-resident"
			}
			spTb.AddRow(label,
				fmt.Sprintf("%.4f", r.CyclesPerRef(pip)),
				fmt.Sprintf("%.2f", float64(r.Stats.DirEntryEvictions)/float64(r.Stats.Refs)*1000))
		}
		fmt.Fprintln(w, spTb.Render())
		return nil
	})

	// Ablation: finite cache sizes. The paper argues finite-cache costs
	// add to the sharing costs to first order; measure the addition
	// directly with a half-trace warm-up and cold misses included.
	s.do("finite-cache", func() error {
		finTb := report.NewTable("Ablation: Dir0B on POPS vs cache size (4-way, cycles/ref, warm measurement)",
			"cache blocks", "cycles/ref", "data miss rate %")
		finiteGeoms := []struct {
			label string
			sets  int
			ways  int
		}{
			{"256", 64, 4}, {"1024", 256, 4}, {"4096", 1024, 4}, {"infinite", 0, 0},
		}
		finiteCells := make([]spec.Cell, len(finiteGeoms))
		for i, geom := range finiteGeoms {
			finiteCells[i] = spec.Cell{
				Trace:   tracegen.POPS(refs),
				Schemes: []string{"dir0b"},
				Machine: coherence.Config{Caches: cpus, FiniteSets: geom.sets, FiniteWays: geom.ways},
				Sim:     spec.Sim{IncludeFirstRefCosts: true, WarmupRefs: refs / 2},
			}
		}
		finiteRes, err := exec(ctx, finiteCells)
		if err != nil {
			return err
		}
		for i, geom := range finiteGeoms {
			r := finiteRes[i][0]
			finTb.AddRow(geom.label,
				fmt.Sprintf("%.4f", r.CyclesPerRef(pip)),
				fmt.Sprintf("%.2f", r.Stats.Events.DataMissRate()*100))
		}
		fmt.Fprintln(w, finTb.Render())
		return nil
	})

	// Appendix: sampling error. The paper's numbers come from one trace
	// per application; replicating POPS across five seeds puts error bars
	// on Figure 2's column.
	s.do("seed-replication", func() error {
		seeds := study.Seeds(1, 5)
		sums, err := study.SeedSweep(ctx, tracegen.POPS(refs/2), seeds, section3Schemes,
			cfg, sim.Options{}, study.CyclesPerRef(pip))
		if err != nil {
			return err
		}
		errTb := report.NewTable("Appendix: POPS across 5 seeds (pipelined cycles/ref, mean ± 95% CI)",
			"Scheme", "mean", "±CI95", "stddev")
		for _, sm := range sums {
			errTb.AddRow(sm.Scheme,
				fmt.Sprintf("%.4f", sm.Mean),
				fmt.Sprintf("%.4f", sm.CI95),
				fmt.Sprintf("%.4f", sm.StdDev))
		}
		fmt.Fprintln(w, errTb.Render())
		if cmp, err := study.Compare(sums[2], sums[3]); err == nil {
			fmt.Fprintf(w, "paired Dir0B−Dragon difference: %.4f ± %.4f (significant: %v)\n\n",
				cmp.Diff, cmp.CI95, cmp.Significant())
		}
		return nil
	})

	// Cross-check: the frequency methodology reproduces the direct
	// operation accounting for the fixed-cost schemes.
	s.do("accounting", func() error {
		if err := needCore(); err != nil {
			return err
		}
		for _, r := range combined {
			if err := sim.VerifyAccounting(r); err != nil {
				return err
			}
		}
		fmt.Fprintln(w, "accounting cross-check: events × per-event costs == measured operations ✓")
		return nil
	})

	if s.fatal != nil {
		return s.fatal
	}
	s.man.Total = s.n
	if o.manifest != "" {
		if err := s.man.Write(o.manifest); err != nil {
			return err
		}
	}
	if traces != nil {
		if err := flight.WriteFile(o.traceOut, traces.Recorders()...); err != nil {
			return err
		}
	}
	if s.man.Failed > 0 {
		return fmt.Errorf("%w: %d of %d sections failed", errDegraded, s.man.Failed, s.n)
	}
	return nil
}

// presetCells builds one cell per workload preset: the same scheme set in
// lockstep over each (optionally filtered) trace.
func presetCells(presets []tracegen.Config, filter string, schemes []string,
	cfg coherence.Config, s spec.Sim) []spec.Cell {
	cells := make([]spec.Cell, len(presets))
	for i, p := range presets {
		cells[i] = spec.Cell{
			Trace:   p,
			Filter:  filter,
			Schemes: append([]string(nil), schemes...),
			Machine: cfg,
			Sim:     s,
		}
	}
	return cells
}

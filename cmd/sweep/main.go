// Command sweep runs a grid of (workload × machine size × scheme) cells,
// each replicated across seeds, and emits one CSV row per cell with the
// mean and 95% confidence interval of bus cycles per reference — the raw
// material for scaling plots.
//
// The grid is flattened into one job per (cell, seed) and executed
// through one cell executor (internal/cellexec) — the shared runner pool
// by default — whose per-job results all take the same path: rows stream
// out as their cell's replications complete, in grid order, whatever the
// worker count or completion order.
//
// The run is resilient: a failed or panicking cell never aborts the
// sweep. Surviving cells stream to the (crash-safely written) CSV, every
// failure lands in a machine-readable manifest, completed cells are
// checkpointed as they finish, and -resume replays only the missing or
// failed cells — producing output byte-identical to an uninterrupted
// clean run. Deterministic fault-injection knobs (-fault-*) exercise all
// of this on demand.
//
// Usage:
//
//	sweep -workloads pops,thor,pero -schemes dir0b,dirnnb,dragon \
//	      -cpus 4,8,16 -refs 300000 -seeds 3 -parallel 4 > sweep.csv
//	sweep ... -o sweep.csv -checkpoint sweep.ck.json -manifest sweep.failures.json
//	sweep ... -o sweep.csv -checkpoint sweep.ck.json -resume
//	sweep ... -remote http://127.0.0.1:8023 > sweep.csv
//	sweep ... -cluster peers.json > sweep.csv
//	sweep ... -cluster peers.json -trace fleet.json > sweep.csv
//
// With -remote the grid is submitted to a dirsimd daemon as one sweep
// spec — one request, which the daemon runs several cells wide — and rows
// are rebuilt from the returned result document, byte identical to a
// local run of the same grid. Fault-injection and
// checkpoint flags are local-execution concerns and refuse to combine
// with -remote.
//
// With -cluster the grid is partitioned across a dirsimd fleet: each
// cell is submitted to its rendezvous-hash owner, hedged onto the next
// peer after -hedge, and failed over when a daemon dies mid-sweep. Rows
// still stream in grid order and the CSV is byte-identical to a
// single-node or local run of the same grid. Adding -trace records the
// client's cell and attempt spans, collects every daemon's fabric spans
// for each cell afterwards (trace id = cell content hash), and writes
// one merged fleet trace — hedge winners and losers, peer cache
// fetches, and crash-replayed jobs all visible under one timeline.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dirsim/internal/atomicio"
	"dirsim/internal/bus"
	"dirsim/internal/cellexec"
	"dirsim/internal/cluster"
	"dirsim/internal/faults"
	"dirsim/internal/flight"
	"dirsim/internal/obs"
	"dirsim/internal/otrace"
	"dirsim/internal/remote"
	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
	"dirsim/internal/study"
	"dirsim/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	workloads := flag.String("workloads", "pops,thor,pero", "comma-separated workload presets")
	schemes := flag.String("schemes", "dir1nb,wti,dir0b,dragon", "comma-separated schemes")
	cpus := flag.String("cpus", "4", "comma-separated processor counts")
	refs := flag.Int("refs", 300_000, "references per trace")
	seeds := flag.Int("seeds", 3, "replications per cell")
	parallel := flag.Int("parallel", 1, "concurrent simulation jobs (1 = sequential); with -cluster, cells in flight per daemon")
	timeout := flag.Duration("timeout", 0, "abort the sweep after this long (0 = no limit)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline (0 = no limit)")
	retries := flag.Int("retries", 2, "with -remote or -cluster: extra attempts when a daemon answers 429 or 503")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "with -remote or -cluster: backoff before the first retry (doubles per attempt, jittered)")
	out := flag.String("o", "-", "output CSV file (written atomically), or - for stdout")
	manifest := flag.String("manifest", "", "write a JSON failure manifest to this file")
	checkpoint := flag.String("checkpoint", "", "save completed cells to this JSON file as they finish")
	resume := flag.Bool("resume", false, "load -checkpoint and re-run only missing or failed cells")
	remoteURL := flag.String("remote", "", "run the grid on a dirsimd daemon at this base URL instead of locally")
	clusterFile := flag.String("cluster", "", "run the grid on the dirsimd fleet this membership file describes (cells routed to their rendezvous owners)")
	hedge := flag.Duration("hedge", 2*time.Second, "with -cluster, try the next peer concurrently when the owner has not answered after this long (0 = off)")
	fleetTrace := flag.String("trace", "", "with -cluster, write one merged fleet trace of the sweep here (.json = Chrome trace, .ndjson = span rows): client spans plus every daemon's spans for each cell")
	apiKey := flag.String("api-key", os.Getenv("DIRSIM_API_KEY"), "API key for -remote and -cluster daemons running with tenants configured (default $DIRSIM_API_KEY)")
	progress := flag.Bool("progress", false, "report job and throughput counts on stderr")
	pprofFile := flag.String("pprof", "", "write a CPU profile to this file")
	traceOut := flag.String("trace-out", "", "write a flight trace of every job here (.json = Chrome trace, .ndjson = one event per line)")
	traceSample := flag.Int("trace-sample", flight.DefaultSample, "with -trace-out, record every Nth reference's protocol events (0 = spans only)")
	spans := flag.Bool("spans", false, "with -trace-out, also record run-phase spans")
	faultSeed := flag.Int64("fault-seed", 1, "seed for deterministic fault injection")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "per-reference bit-flip probability in fault-injected jobs")
	faultTruncate := flag.Int("fault-truncate", 0, "fault-injected jobs lose their trace after this many references")
	faultPanic := flag.String("fault-panic", "", "comma-separated job indices that panic mid-run")
	faultJobs := flag.String("fault-jobs", "", "comma-separated job indices to inject trace faults into (default: all)")
	flag.Parse()

	// A signal cancels the sweep between cells; the explicit flush calls
	// below (not defers — log.Fatal skips defers) then commit the partial
	// artifacts (CPU profile, collected fleet spans) before exit.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var pf *atomicio.File
	if *pprofFile != "" {
		f, err := atomicio.Create(*pprofFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Abort()
			log.Fatal(err)
		}
		pf = f
	}
	var fleetStore *otrace.Store
	if *fleetTrace != "" {
		fleetStore = otrace.NewStore(0)
	}
	// flush commits the run-scoped artifacts exactly once. Every exit
	// path calls it explicitly — an interrupted sweep still lands its
	// profile and whatever fleet spans were collected before the signal.
	var flushOnce sync.Once
	var flushErr error
	flush := func() error {
		flushOnce.Do(func() {
			if pf != nil {
				pprof.StopCPUProfile()
				if err := pf.Commit(); err != nil {
					flushErr = err
				}
			}
			if fleetStore != nil && fleetStore.Added() > 0 {
				if err := writeFleetTrace(*fleetTrace, fleetStore); err != nil && flushErr == nil {
					flushErr = err
				}
			}
		})
		return flushErr
	}
	fatal := func(err error) {
		flush() //nolint:errcheck // already failing; the run error wins
		log.Fatal(err)
	}

	o := options{
		workloads: *workloads, schemes: *schemes, cpus: *cpus,
		refs: *refs, seeds: *seeds, parallel: *parallel, jobTimeout: *jobTimeout,
		retries: *retries, retryBase: *retryBase, sleep: time.Sleep,
		manifest: *manifest, checkpoint: *checkpoint, resume: *resume,
		faultSeed: *faultSeed, faultCorrupt: *faultCorrupt,
		faultTruncate: *faultTruncate, faultPanic: *faultPanic, faultJobs: *faultJobs,
		remote: *remoteURL, apiKey: *apiKey,
		cluster: *clusterFile, hedge: *hedge,
		fleetTrace: *fleetTrace, fleetStore: fleetStore,
		progress: *progress, progressW: os.Stderr,
		traceOut: *traceOut, traceSample: *traceSample, spans: *spans,
	}

	var w io.Writer = os.Stdout
	var af *atomicio.File
	if *out != "-" {
		f, err := atomicio.Create(*out)
		if err != nil {
			fatal(err)
		}
		af = f
		w = f
	}
	err := run(ctx, w, o)
	switch {
	case err == nil:
		if af != nil {
			if cerr := af.Commit(); cerr != nil {
				fatal(cerr)
			}
		}
		if ferr := flush(); ferr != nil {
			log.Fatal(ferr)
		}
	case errors.Is(err, errDegraded):
		// Partial results are still results: commit them, then report
		// the degradation and exit nonzero.
		if af != nil {
			if cerr := af.Commit(); cerr != nil {
				fatal(cerr)
			}
		}
		if ferr := flush(); ferr != nil {
			log.Print(ferr)
		}
		log.Print(err)
		os.Exit(1)
	default:
		if af != nil {
			af.Abort()
		}
		fatal(err)
	}
}

// errDegraded marks a sweep that finished with failed cells: outputs are
// valid and written, but incomplete.
var errDegraded = errors.New("degraded run")

// options collects the command's flags.
type options struct {
	workloads, schemes, cpus string
	refs, seeds, parallel    int

	jobTimeout time.Duration
	retries    int
	retryBase  time.Duration
	sleep      func(time.Duration)

	manifest, checkpoint string
	resume               bool

	faultSeed     int64
	faultCorrupt  float64
	faultTruncate int
	faultPanic    string
	faultJobs     string

	remote  string
	apiKey  string
	cluster string
	hedge   time.Duration

	// fleetTrace is the -trace output path; fleetStore (created by main,
	// which also flushes it on every exit path) accumulates the client's
	// own spans and the spans fetched from the daemons after the sweep.
	fleetTrace string
	fleetStore *otrace.Store

	progress  bool
	progressW io.Writer

	traceOut    string
	traceSample int
	spans       bool
}

// cellMeta names one output cell: a (workload, cpus) grid point. Its
// jobs are the seeds×schemes replications at indices
// [cell*seeds, (cell+1)*seeds).
type cellMeta struct {
	workload string
	cpus     int
}

// checkpointFile is the periodic on-disk record of completed jobs: the
// grid parameters it belongs to, plus each finished job's per-scheme
// metric values keyed by global job index. float64 values survive the
// JSON round trip exactly, which is what makes resumed output
// byte-identical to a clean run.
type checkpointFile struct {
	Workloads string               `json:"workloads"`
	Schemes   string               `json:"schemes"`
	Cpus      string               `json:"cpus"`
	Refs      int                  `json:"refs"`
	Seeds     int                  `json:"seeds"`
	Jobs      map[string][]float64 `json:"jobs"`
}

func run(ctx context.Context, w io.Writer, o options) error {
	if o.refs <= 0 || o.seeds <= 0 {
		return fmt.Errorf("refs and seeds must be positive")
	}
	var cpuList []int
	for _, c := range strings.Split(o.cpus, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil || n < 1 {
			return fmt.Errorf("bad cpu count %q", c)
		}
		cpuList = append(cpuList, n)
	}
	schemeList := strings.Split(o.schemes, ",")
	var workloadList []string
	for _, wl := range strings.Split(o.workloads, ",") {
		workloadList = append(workloadList, strings.TrimSpace(wl))
	}
	metric := study.CyclesPerRef(bus.Pipelined())

	// Resolve canonical scheme names up front: rows rebuilt from a
	// checkpoint must print exactly the names a live run would, and a
	// bogus scheme should fail before any simulation starts.
	canon, err := spec.CanonicalSchemes(schemeList, cpuList[0])
	if err != nil {
		return err
	}

	// Flatten the grid through the shared spec types: cells are ordered
	// (workload, cpus, seed), so cell index i belongs to output cell
	// i/seeds and seed i%seeds — the exact grid a daemon would expand
	// from the same parameters. Cells() validates every cell.
	sw := spec.Sweep{
		Workloads: workloadList, Schemes: schemeList, CPUs: cpuList,
		Refs: o.refs, Seeds: o.seeds,
	}
	specCells, err := sw.Cells()
	if err != nil {
		return err
	}
	var cells []cellMeta
	for i := 0; i < len(specCells); i += o.seeds {
		cells = append(cells, cellMeta{
			workload: specCells[i].Trace.Name,
			cpus:     specCells[i].Trace.CPUs,
		})
	}

	if o.remote != "" && o.cluster != "" {
		return fmt.Errorf("-remote and -cluster are mutually exclusive: a cluster file already names the daemons")
	}
	if o.remote != "" || o.cluster != "" {
		mode := "-remote"
		if o.cluster != "" {
			mode = "-cluster"
		}
		switch {
		case o.faultCorrupt > 0 || o.faultTruncate > 0 || o.faultPanic != "" || o.faultJobs != "":
			return fmt.Errorf("%s cannot be combined with fault injection: faults exercise the local runner", mode)
		case o.checkpoint != "" || o.resume:
			return fmt.Errorf("%s cannot be combined with -checkpoint/-resume: the daemon's result cache already makes repeats cheap", mode)
		case o.traceOut != "":
			return fmt.Errorf("%s cannot be combined with -trace-out: run the daemon with -trace-sample and fetch /v1/jobs/{id}/trace instead", mode)
		}
	}
	if o.fleetTrace != "" && o.cluster == "" {
		return fmt.Errorf("-trace requires -cluster: a single daemon's trace is served by GET /v1/jobs/{id}/trace")
	}

	// values[i] holds cell i's per-scheme metric values — prefilled from
	// the checkpoint on -resume, filled as cells finish otherwise.
	// failed[i] marks cells whose final attempt errored.
	values := make([][]float64, len(specCells))
	failed := make([]bool, len(specCells))
	ck := checkpointFile{
		Workloads: o.workloads, Schemes: o.schemes, Cpus: o.cpus,
		Refs: o.refs, Seeds: o.seeds, Jobs: map[string][]float64{},
	}
	if o.resume {
		if o.checkpoint == "" {
			return fmt.Errorf("-resume requires -checkpoint")
		}
		data, err := os.ReadFile(o.checkpoint)
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		var old checkpointFile
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("-resume: corrupt checkpoint %s: %w", o.checkpoint, err)
		}
		if old.Workloads != o.workloads || old.Schemes != o.schemes ||
			old.Cpus != o.cpus || old.Refs != o.refs || old.Seeds != o.seeds {
			return fmt.Errorf("-resume: checkpoint %s was written by a different grid", o.checkpoint)
		}
		for k, vals := range old.Jobs {
			i, err := strconv.Atoi(k)
			if err != nil || i < 0 || i >= len(specCells) || len(vals) != len(schemeList) {
				return fmt.Errorf("-resume: corrupt checkpoint entry %q in %s", k, o.checkpoint)
			}
			values[i] = vals
			ck.Jobs[k] = vals
		}
	}

	// Submit only cells without checkpointed values; submitIdx maps a
	// submitted cell's index back to its global grid index.
	var submit []spec.Cell
	var submitIdx []int
	for gi, c := range specCells {
		if values[gi] == nil {
			submit = append(submit, c)
			submitIdx = append(submitIdx, gi)
		}
	}

	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"workload", "cpus", "scheme", "refs", "seeds",
		"cycles_per_ref_mean", "cycles_per_ref_ci95",
	}); err != nil {
		return err
	}

	// Rows stream in grid order whatever order cells finish in: a cell
	// flushes the moment its last seed lands and every earlier cell has
	// resolved; a cell with any failed seed emits no rows and is skipped —
	// its failure is in the manifest and a -resume replays it.
	var rowErr error
	nextCell := 0
	emit := func() {
		if rowErr != nil {
			return
		}
		for nextCell < len(cells) {
			lo := nextCell * o.seeds
			cellFailed := false
			complete := true
			for j := lo; j < lo+o.seeds; j++ {
				if failed[j] {
					cellFailed = true
				} else if values[j] == nil {
					complete = false
				}
			}
			if cellFailed {
				nextCell++
				continue
			}
			if !complete {
				return
			}
			c := cells[nextCell]
			for si := range schemeList {
				vals := make([]float64, o.seeds)
				for s := 0; s < o.seeds; s++ {
					vals[s] = values[lo+s][si]
				}
				sum := study.Summarise(canon[si], vals)
				if err := cw.Write([]string{
					c.workload, strconv.Itoa(c.cpus), sum.Scheme,
					strconv.Itoa(o.refs), strconv.Itoa(o.seeds),
					fmt.Sprintf("%.6f", sum.Mean),
					fmt.Sprintf("%.6f", sum.CI95),
				}); err != nil {
					rowErr = err
					return
				}
			}
			cw.Flush()
			if rowErr = cw.Error(); rowErr != nil {
				return
			}
			nextCell++
		}
	}
	saveCheckpoint := func() {
		if o.checkpoint == "" || rowErr != nil {
			return
		}
		data, err := json.MarshalIndent(ck, "", "  ")
		if err != nil {
			rowErr = err
			return
		}
		if err := atomicio.WriteFile(o.checkpoint, append(data, '\n')); err != nil {
			rowErr = err
		}
	}

	// Pick what runs the cells; everything below is one result path.
	// Daemon saturation (429 quota/queue-full, 503 restart) is absorbed
	// on a deterministic retry schedule, honouring the daemon's
	// Retry-After.
	var exec cellexec.Executor
	var mem cluster.Membership
	var traces *cellexec.Traces
	switch {
	case o.remote != "":
		// The whole grid goes to the daemon as one sweep spec, which it
		// runs several cells wide; -remote rejects -resume, so the
		// submitted cells are the grid.
		client := &remote.Client{
			BaseURL: o.remote,
			APIKey:  o.apiKey,
			Retry:   remote.RetryPolicy{Max: o.retries + 1, Base: o.retryBase, Seed: 1},
			Sleep:   o.sleep,
		}
		exec = func(ctx context.Context, _ []spec.Cell, onDone func(int, []sim.Result, error)) error {
			results, err := client.RunCells(ctx, spec.Request{Sweep: &sw})
			for i, rs := range results {
				onDone(i, rs, nil)
			}
			return err
		}
	case o.cluster != "":
		// Each cell goes to its rendezvous-hash owner, hedged and failed
		// over per the cluster client.
		if mem, err = cluster.LoadMembership(o.cluster); err != nil {
			return err
		}
		health := cluster.NewHealth()
		// With -trace the client records its own cell/attempt spans into
		// the shared store; the trace id of each cell is its content hash,
		// which is how the daemons' spans are found again afterwards.
		var tracer *otrace.Tracer
		clusterMetrics := obs.NewMetrics()
		if o.fleetStore != nil {
			tracer = otrace.New("sweep", func() int64 { return time.Now().UnixNano() }, o.fleetStore, clusterMetrics)
		}
		cc := &cluster.Client{
			Membership: mem,
			Router:     cluster.NewRouter(mem, health),
			Health:     health,
			APIKey:     o.apiKey,
			Retry:      remote.RetryPolicy{Max: o.retries + 1, Base: o.retryBase, Seed: 1},
			Sleep:      o.sleep,
			HedgeDelay: o.hedge,
			After:      time.After,
			Tracer:     tracer,
			Metrics:    clusterMetrics,
		}
		// -parallel is per-daemon concurrency; the fleet multiplies it.
		exec = cellexec.Fleet(cc, o.parallel*len(mem.Peers))
	default:
		ropts := runner.Options{Workers: o.parallel, JobTimeout: o.jobTimeout}
		// Trace pids are global grid indices, which group each job's
		// tracks in the export the same way on a -resume run.
		if o.traceOut != "" {
			traces = &cellexec.Traces{
				Sample: o.traceSample, Spans: o.spans,
				Pid: func(si int) int { return submitIdx[si] },
			}
		}
		if o.progress {
			pw := o.progressW
			if pw == nil {
				pw = os.Stderr
			}
			m := obs.NewMetrics()
			start := time.Now()
			th := obs.NewThrottle(200*time.Millisecond, func() int64 { return time.Now().UnixNano() })
			ropts.Metrics = m
			ropts.Progress = func() {
				if th.Ready() {
					s := m.Snapshot()
					fmt.Fprintf(pw, "\rjobs %d/%d  %d refs (%.0f refs/s)  failures %d ",
						s.JobsDone, s.JobsTotal, s.Refs, s.RefsPerSec(time.Since(start)),
						s.Failures)
				}
			}
			defer fmt.Fprintln(pw)
		}
		wrap, err := faultWrapper(o, submitIdx)
		if err != nil {
			return err
		}
		exec = cellexec.Local(ropts, traces, wrap)
	}

	man := runner.NewManifest("sweep", len(specCells))
	// Cells fully satisfied by the checkpoint flush before any job runs.
	emit()
	if rowErr != nil {
		return rowErr
	}
	err = exec(ctx, submit, func(si int, rs []sim.Result, err error) {
		gi := submitIdx[si]
		if err != nil {
			failed[gi] = true
			man.Record(gi, specCells[gi].Label(), err)
		} else {
			vals := make([]float64, len(rs))
			for k, r := range rs {
				vals[k] = metric(r)
			}
			values[gi] = vals
			ck.Jobs[strconv.Itoa(gi)] = vals
			saveCheckpoint()
		}
		emit()
	})
	if err != nil {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		// Per-job failures of a local run are in the manifest; the
		// degraded path below reports them. Anything else — a daemon or
		// fleet failure included — fails the command.
		if !jobFailuresOnly(err) {
			return err
		}
	}
	if rowErr != nil {
		return rowErr
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if o.manifest != "" {
		if err := man.Write(o.manifest); err != nil {
			return err
		}
	}
	if traces != nil {
		if err := flight.WriteFile(o.traceOut, traces.Recorders()...); err != nil {
			return err
		}
	}
	if o.fleetStore != nil {
		collectFleetSpans(ctx, mem, specCells, o.fleetStore)
	}
	if man.Failed > 0 {
		return fmt.Errorf("%w: %d of %d jobs failed; partial results written, rerun with -resume to fill the gaps",
			errDegraded, man.Failed, len(specCells))
	}
	return nil
}

// faultWrapper returns the local executor's job rewrite for the -fault-*
// trace faults, or nil when none apply. Trace faults scope to -fault-jobs
// (default all), panics to -fault-panic, both keyed by global grid index
// (submitIdx maps a submitted cell back to it) so a resumed run with no
// fault flags replays the same cells cleanly.
func faultWrapper(o options, submitIdx []int) (func(int, runner.Job) runner.Job, error) {
	faultSet, err := parseIndexSet(o.faultJobs)
	if err != nil {
		return nil, fmt.Errorf("-fault-jobs: %w", err)
	}
	panicSet, err := parseIndexSet(o.faultPanic)
	if err != nil {
		return nil, fmt.Errorf("-fault-panic: %w", err)
	}
	injectTrace := o.faultCorrupt > 0 || o.faultTruncate > 0
	if !injectTrace && len(panicSet) == 0 {
		return nil, nil
	}
	return func(si int, j runner.Job) runner.Job {
		gi := submitIdx[si]
		cfg := faults.Config{Seed: o.faultSeed + int64(gi)}
		active := false
		if injectTrace && (faultSet == nil || faultSet[gi]) {
			cfg.CorruptProb = o.faultCorrupt
			cfg.TruncateAfter = o.faultTruncate
			active = true
		}
		if panicSet[gi] {
			cfg.PanicAfter = o.refs/2 + 1
			active = true
		}
		if !active {
			return j
		}
		src := j.Source
		j.Source = func() (trace.Reader, error) {
			rd, err := src()
			if err != nil {
				return nil, err
			}
			return faults.Wrap(rd, cfg), nil
		}
		return j
	}, nil
}

// collectFleetSpans asks every fleet member for its spans of every
// cell's trace (the trace id is the cell's content hash) and folds them
// into the store alongside the client's own spans. Collection is
// best-effort per peer: a daemon that died mid-sweep contributes
// nothing, but the spans of the peers that finished its failed-over
// cells are still there — which is exactly the story the trace should
// tell. Peers are fetched concurrently, cells sequentially per peer.
func collectFleetSpans(ctx context.Context, mem cluster.Membership, cells []spec.Cell, st *otrace.Store) {
	traces := make([]string, 0, len(cells))
	for _, c := range cells {
		h, err := c.Hash()
		if err != nil {
			continue
		}
		traces = append(traces, h)
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	for _, p := range mem.Peers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			for _, tr := range traces {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(addr, "/")+"/v1/trace/"+tr, nil)
				if err != nil {
					return
				}
				if mem.Key != "" {
					req.Header.Set(cluster.KeyHeader, mem.Key)
				}
				resp, err := hc.Do(req)
				if err != nil {
					log.Printf("trace: peer %s unreachable, its spans are skipped: %v", addr, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close() // 404: the peer never touched this cell
					continue
				}
				spans, err := otrace.ReadNDJSON(resp.Body)
				resp.Body.Close()
				if err != nil {
					log.Printf("trace: peer %s served a bad span document: %v", addr, err)
					continue
				}
				for _, s := range spans {
					st.Add(s)
				}
			}
		}(p.Addr)
	}
	wg.Wait()
}

// writeFleetTrace exports the merged fleet trace crash-safely; the
// extension picks the format (.json Chrome, .ndjson span rows).
func writeFleetTrace(path string, st *otrace.Store) error {
	spans := pruneOrphans(otrace.Dedup(st.Spans()))
	f, err := atomicio.Create(path)
	if err != nil {
		return err
	}
	if err := otrace.Write(f, path, spans); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// pruneOrphans drops spans whose parent chain does not resolve within
// the set: the collection races the tail of canceled hedge losers on
// the daemons, whose child spans can land in a peer's store before the
// job span that parents them. Iterates to a fixpoint so the
// descendants of a missing parent drop with it.
func pruneOrphans(spans []otrace.Span) []otrace.Span {
	for {
		ids := make(map[string]bool, len(spans))
		for _, s := range spans {
			ids[s.ID()] = true
		}
		keep := make([]otrace.Span, 0, len(spans))
		for _, s := range spans {
			if s.Parent == "" || ids[s.Parent] {
				keep = append(keep, s)
			}
		}
		if len(keep) == len(spans) {
			return keep
		}
		spans = keep
	}
}

// jobFailuresOnly reports whether err (possibly an errors.Join tree)
// consists solely of per-job failures — the degraded-but-valid case.
func jobFailuresOnly(err error) bool {
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range u.Unwrap() {
			if e != nil && !jobFailuresOnly(e) {
				return false
			}
		}
		return true
	}
	var je *runner.JobError
	return errors.As(err, &je)
}

// parseIndexSet parses a comma-separated list of non-negative job
// indices; an empty string means nil (no restriction).
func parseIndexSet(s string) (map[int]bool, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	set := map[int]bool{}
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad job index %q", f)
		}
		set[n] = true
	}
	return set, nil
}

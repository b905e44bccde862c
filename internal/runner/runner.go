// Package runner is the shared experiment-orchestration layer. The
// paper's methodology is embarrassingly parallel — independent
// (workload × machine size × scheme × seed) cells — so every run path
// (cmd/paper's tables and figures, cmd/sweep's grid, internal/study's
// replications) describes its work as a list of Jobs and hands them to
// one bounded, deterministic worker pool with context cancellation,
// aggregated errors, ordered result delivery, and obs instrumentation.
//
// The pool is also the failure boundary: a panicking job becomes an
// error carrying its identity (never a dead sweep), and a per-job
// deadline bounds how long any one cell can hold a worker. A job runs
// once: its trace comes from a seeded generator, so a job that fails
// would fail the same way again. See resilience.go.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dirsim/internal/coherence"
	"dirsim/internal/flight"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
)

// Job is one independent simulation cell: a trace source and the scheme
// set to run over it.
type Job struct {
	// Label identifies the job in errors and progress output.
	Label string
	// Source opens the job's trace. It is called once, on the worker
	// goroutine that runs the job, so generators need not be safe for
	// concurrent use across jobs.
	Source func() (trace.Reader, error)
	// Schemes, Config and Opts parameterise sim.RunSchemes.
	Schemes []string
	Config  coherence.Config
	Opts    sim.Options
}

// Options configures a pool run.
type Options struct {
	// Workers bounds the number of concurrently running jobs; values
	// below 1 mean 1 (sequential). Workers are fixed goroutines that
	// claim jobs in index order, so no run ever spawns more goroutines
	// than Workers (plus each job's own sim.Options.Parallel engine
	// workers).
	Workers int
	// Metrics, when non-nil, accumulates refs simulated, jobs done/total,
	// failures/panics and per-engine tallies across the run.
	Metrics *obs.Metrics
	// OnResult, when non-nil, is called once per successful job in job
	// index order (calls are serialised and never run concurrently),
	// enabling streaming consumption of long grids.
	OnResult func(index int, rs []sim.Result)
	// OnError, when non-nil, is called once per failed job with its
	// *JobError, interleaved with OnResult in the same serialised job
	// index order — the streaming view a failure manifest is built from.
	OnError func(index int, err error)
	// Progress, when non-nil, is called after every metrics update — at
	// reference-batch granularity — from whichever worker made the
	// update. It must be cheap; throttle rendering in the caller (see
	// obs.Throttle).
	Progress func()
	// JobTimeout, when positive, bounds each job's wall-clock time; a
	// job exceeding it fails with ErrJobDeadline.
	JobTimeout time.Duration
	// TraceFor, when non-nil, is consulted at the start of each job with
	// its index and may return a flight recorder for the job's
	// simulation to record into (nil leaves the job untraced). The
	// recorder overrides Job.Opts.Recorder.
	TraceFor func(index int) *flight.Recorder
}

// Run executes the jobs on a bounded worker pool and returns one result
// slice per job, in job order. A failed job — including one that
// panicked — never stops the others: its error is wrapped in a *JobError
// and aggregated with errors.Join, and the slice still carries every
// successful job's results. Cancelling the context stops the pool within
// one reference batch.
func Run(ctx context.Context, jobs []Job, opts Options) ([][]sim.Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if opts.Metrics != nil {
		opts.Metrics.AddJobs(len(jobs))
	}

	out := make([][]sim.Result, len(jobs))
	errs := make([]error, len(jobs))

	// Ordered delivery: workers mark jobs done under mu; whichever worker
	// fills the gap at nextOut flushes the run of completed jobs, so
	// OnResult/OnError see index order and are never called concurrently.
	var mu sync.Mutex
	done := make([]bool, len(jobs))
	nextOut := 0
	completed := 0
	finish := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done[i] = true
		completed++
		for nextOut < len(jobs) && done[nextOut] {
			if errs[nextOut] == nil {
				if opts.OnResult != nil {
					opts.OnResult(nextOut, out[nextOut])
				}
			} else if opts.OnError != nil {
				opts.OnError(nextOut, errs[nextOut])
			}
			nextOut++
		}
	}

	var claim atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(claim.Add(1)) - 1
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				rs, err := runJob(ctx, i, jobs[i], opts)
				out[i] = rs
				if err != nil {
					errs[i] = &JobError{Index: i, Label: jobs[i].Label, Err: err}
					if opts.Metrics != nil {
						opts.Metrics.AddFailure()
					}
				}
				finish(i)
			}
		}()
	}
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	if completed < len(jobs) {
		// Jobs were skipped because the context ended before they
		// started; none of the started jobs saw it (they would have
		// errored), so surface it here.
		return out, context.Cause(ctx)
	}
	return out, nil
}

// runJob opens the job's trace and runs its schemes once, threading the
// pool's instrumentation into the simulation driver. Panics are recovered
// into *PanicError; the per-job deadline, when configured, cancels the
// job with ErrJobDeadline.
func runJob(ctx context.Context, index int, j Job, opts Options) (rs []sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			if opts.Metrics != nil {
				opts.Metrics.AddPanic()
			}
			rs, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if j.Source == nil {
		return nil, fmt.Errorf("runner: job has no trace source")
	}

	jobCtx := ctx
	if opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithTimeoutCause(ctx, opts.JobTimeout, ErrJobDeadline)
		defer cancel()
	}

	rd, err := j.Source()
	if err != nil {
		return nil, err
	}
	if opts.JobTimeout > 0 {
		rd = guard(jobCtx, rd)
	}
	simOpts := j.Opts
	if opts.TraceFor != nil {
		simOpts.Recorder = opts.TraceFor(index)
	}
	// ticks counts this job's progress callbacks — its latency in
	// reference batches, a deterministic stand-in for wall clock.
	var ticks uint64
	if opts.Metrics != nil || opts.Progress != nil {
		prev := simOpts.OnProgress
		simOpts.OnProgress = func(n int) {
			if prev != nil {
				prev(n)
			}
			ticks++
			if opts.Metrics != nil {
				opts.Metrics.AddRefs(uint64(n))
			}
			if opts.Progress != nil {
				opts.Progress()
			}
		}
	}
	rs, err = sim.RunSchemes(jobCtx, rd, j.Schemes, j.Config, simOpts)
	if err != nil {
		// When the job's own deadline fired (not the run-level context),
		// report its cause, ErrJobDeadline, instead of a bare context
		// error.
		if jobCtx.Err() != nil && ctx.Err() == nil {
			err = context.Cause(jobCtx)
		}
		return nil, err
	}
	if opts.Metrics != nil {
		burst := opts.Metrics.Histogram(obs.HistInvalBurst)
		for _, r := range rs {
			var ops uint64
			for _, n := range r.Stats.Ops {
				ops += n
			}
			opts.Metrics.AddEngine(r.Scheme, obs.EngineTally{
				Refs:         r.Stats.Refs,
				Transactions: r.Stats.Transactions,
				BusOps:       ops,
			})
			// Fold the Figure 1 fanout histogram into the run-wide
			// invalidations-per-write burst distribution: exact counts,
			// no per-reference cost.
			for fanout, n := range r.Stats.InvalFanout.Counts {
				burst.ObserveN(uint64(fanout), n)
			}
		}
		opts.Metrics.Histogram(obs.HistJobTicks).Observe(ticks)
		opts.Metrics.JobDone()
		if opts.Progress != nil {
			opts.Progress()
		}
	}
	return rs, nil
}

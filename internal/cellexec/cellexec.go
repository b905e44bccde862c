// Package cellexec is the one seam through which the command-line tools
// run simulation cells: locally on the runner pool, or on a dirsimd fleet
// through the cluster client. Both report every cell through the same
// callback, so a caller's result path (metric conversion, checkpointing,
// streaming output) is written once whatever runs the cells.
package cellexec

import (
	"context"
	"fmt"
	"sync"

	"dirsim/internal/cluster"
	"dirsim/internal/flight"
	"dirsim/internal/remote"
	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
)

// Executor runs a batch of independent cells. It reports each cell it
// finishes through onDone exactly once, with the cell's results or its
// error; calls are serialized and may come in any order. It returns nil
// only when every cell succeeded.
type Executor func(ctx context.Context, cells []spec.Cell, onDone func(i int, rs []sim.Result, err error)) error

// Local runs cells on the runner pool. opts configures the pool (workers,
// metrics, deadline, progress); its OnResult, OnError and TraceFor hooks
// belong to the executor. A non-nil traces gives every job a fresh
// flight recorder, and a non-nil wrap rewrites each compiled job before
// it runs. The returned error is runner.Run's: per-job *runner.JobError
// failures joined, or the context's cause when the run was cut short.
func Local(opts runner.Options, traces *Traces, wrap func(i int, j runner.Job) runner.Job) Executor {
	return func(ctx context.Context, cells []spec.Cell, onDone func(int, []sim.Result, error)) error {
		jobs := make([]runner.Job, len(cells))
		for i, c := range cells {
			j, err := c.Job()
			if err != nil {
				return err
			}
			if wrap != nil {
				j = wrap(i, j)
			}
			jobs[i] = j
		}
		o := opts
		o.OnResult = func(i int, rs []sim.Result) { onDone(i, rs, nil) }
		o.OnError = func(i int, err error) { onDone(i, nil, err) }
		if traces != nil {
			o.TraceFor = traces.hook(jobs)
		}
		_, err := runner.Run(ctx, jobs, o)
		return err
	}
}

// Fleet runs cells on a dirsimd fleet, workers cells in flight: each goes
// to its rendezvous owner through c (hedged and failed over per c's
// settings) and its result document is rebuilt into priceable results.
// The first failure cancels the rest of the batch and is returned.
func Fleet(c *cluster.Client, workers int) Executor {
	return func(ctx context.Context, cells []spec.Cell, onDone func(int, []sim.Result, error)) error {
		var convErr error
		err := c.RunCells(ctx, cells, workers, func(i int, doc *spec.ResultDoc, err error) {
			if err != nil {
				onDone(i, nil, err) // RunCells returns the first such failure
				return
			}
			rs, err := remote.Results(doc, cells[i:i+1])
			if err != nil {
				err = fmt.Errorf("cell %d (%s): %w", i, cells[i].Label(), err)
				if convErr == nil {
					convErr = err
				}
				onDone(i, nil, err)
				return
			}
			onDone(i, rs[0], nil)
		})
		switch {
		case err != nil:
			return err
		case convErr != nil:
			return convErr
		}
		// RunCells reports a plain cancellation of ctx as success.
		return context.Cause(ctx)
	}
}

// Collect runs cells through exec and returns their results in cell
// order.
func Collect(ctx context.Context, exec Executor, cells []spec.Cell) ([][]sim.Result, error) {
	out := make([][]sim.Result, len(cells))
	if err := exec(ctx, cells, func(i int, rs []sim.Result, _ error) { out[i] = rs }); err != nil {
		return nil, err
	}
	return out, nil
}

// Traces accumulates one flight recorder per executed job across every
// Local batch that shares it, for one trace export of a whole run.
type Traces struct {
	// Sample and Spans configure each recorder (see flight.Options).
	Sample int
	Spans  bool
	// Pid maps a batch's cell index to its recorder's pid, the process
	// the job renders as in the export. Nil numbers jobs by their
	// ordinal across every batch.
	Pid func(i int) int

	mu   sync.Mutex
	recs []*flight.Recorder
}

// hook reserves recorder slots for one batch and returns the runner's
// TraceFor callback: a fresh recorder per job.
func (t *Traces) hook(jobs []runner.Job) func(index int) *flight.Recorder {
	t.mu.Lock()
	base := len(t.recs)
	t.recs = append(t.recs, make([]*flight.Recorder, len(jobs))...)
	t.mu.Unlock()
	return func(index int) *flight.Recorder {
		pid := base + index
		if t.Pid != nil {
			pid = t.Pid(index)
		}
		rec := flight.New(flight.Options{
			Sample: t.Sample, Spans: t.Spans,
			Pid: pid, Label: jobs[index].Label,
		})
		t.mu.Lock()
		t.recs[base+index] = rec
		t.mu.Unlock()
		return rec
	}
}

// Recorders returns the collected recorders in job order; jobs that never
// started leave nils, which the flight writers skip.
func (t *Traces) Recorders() []*flight.Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*flight.Recorder(nil), t.recs...)
}

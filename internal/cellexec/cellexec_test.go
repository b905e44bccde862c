package cellexec

import (
	"context"
	"errors"
	"testing"

	"dirsim/internal/cluster"
	"dirsim/internal/faults"
	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
	"dirsim/internal/trace"
)

// testCells is a small grid: pero at 2 and 4 CPUs, two seeds each.
func testCells(t *testing.T) []spec.Cell {
	t.Helper()
	cells, err := spec.Sweep{
		Workloads: []string{"pero"}, Schemes: []string{"dir0b", "dragon"},
		CPUs: []int{2, 4}, Refs: 3_000, Seeds: 2,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// A failed cell reaches onDone with its *runner.JobError, once, next to
// every other cell's results, and the run's error carries the failure.
func TestLocalReportsFailuresThroughOnDone(t *testing.T) {
	cells := testCells(t)
	wrap := func(i int, j runner.Job) runner.Job {
		if i != 1 {
			return j
		}
		src := j.Source
		j.Source = func() (trace.Reader, error) {
			rd, err := src()
			if err != nil {
				return nil, err
			}
			return faults.Wrap(rd, faults.Config{PanicAfter: 100}), nil
		}
		return j
	}
	calls := make([]int, len(cells))
	err := Local(runner.Options{Workers: 2}, nil, wrap)(context.Background(), cells,
		func(i int, rs []sim.Result, err error) {
			calls[i]++
			var je *runner.JobError
			switch {
			case i == 1 && !errors.As(err, &je):
				t.Errorf("cell 1: err = %v, want a *runner.JobError", err)
			case i != 1 && (err != nil || len(rs) != 2):
				t.Errorf("cell %d: %d results, err %v", i, len(rs), err)
			}
		})
	var je *runner.JobError
	if !errors.As(err, &je) || je.Index != 1 {
		t.Errorf("run error = %v, want cell 1's job error", err)
	}
	for i, n := range calls {
		if n != 1 {
			t.Errorf("cell %d reported %d times", i, n)
		}
	}
}

// Traces numbers recorders by cell ordinal across batches unless Pid
// maps them, and keeps them in job order.
func TestTracesPids(t *testing.T) {
	cells := testCells(t)[:2]
	ordinal := &Traces{Spans: true}
	exec := Local(runner.Options{Workers: 2}, ordinal, nil)
	for batch := 0; batch < 2; batch++ {
		if _, err := Collect(context.Background(), exec, cells); err != nil {
			t.Fatal(err)
		}
	}
	mapped := &Traces{Spans: true, Pid: func(i int) int { return 10 + 3*i }}
	if _, err := Collect(context.Background(), Local(runner.Options{}, mapped, nil), cells); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		traces *Traces
		want   []int
	}{{ordinal, []int{0, 1, 2, 3}}, {mapped, []int{10, 13}}} {
		recs := tc.traces.Recorders()
		if len(recs) != len(tc.want) {
			t.Fatalf("%d recorders, want %d", len(recs), len(tc.want))
		}
		for i, rec := range recs {
			if rec.Pid() != tc.want[i] || rec.Label() != cells[i%2].Label() {
				t.Errorf("recorder %d: pid %d label %q, want pid %d label %q",
					i, rec.Pid(), rec.Label(), tc.want[i], cells[i%2].Label())
			}
		}
	}
}

// The cluster client reports a plain cancellation of the caller's
// context as success; the fleet executor must not.
func TestFleetCancelledIsAnError(t *testing.T) {
	mem := cluster.Membership{Peers: []cluster.Peer{{Addr: "http://127.0.0.1:1"}}}
	health := cluster.NewHealth()
	exec := Fleet(&cluster.Client{Membership: mem, Router: cluster.NewRouter(mem, health), Health: health}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := exec(ctx, testCells(t), func(int, []sim.Result, error) {})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

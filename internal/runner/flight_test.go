package runner

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dirsim/internal/flight"
	"dirsim/internal/obs"
)

// TestTraceForCapturesPerJob wires one recorder per job through the pool and checks each job's trace is captured independently
// while results stay identical to an untraced run.
func TestTraceForCapturesPerJob(t *testing.T) {
	jobs := []Job{job(1), job(2), job(3)}
	plain, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	recs := map[int]*flight.Recorder{}
	traced, err := Run(context.Background(), jobs, Options{
		Workers: 2,
		TraceFor: func(index int) *flight.Recorder {
			rec := flight.New(flight.Options{Sample: 16, Spans: true, Pid: index, Label: jobs[index].Label})
			mu.Lock()
			recs[index] = rec
			mu.Unlock()
			return rec
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		for j := range plain[i] {
			if !reflect.DeepEqual(traced[i][j].Stats, plain[i][j].Stats) {
				t.Errorf("job %d: %s stats differ under tracing", i, traced[i][j].Scheme)
			}
		}
	}
	if len(recs) != len(jobs) {
		t.Fatalf("%d recorders created, want %d", len(recs), len(jobs))
	}
	for i, rec := range recs {
		if rec.Pid() != i {
			t.Errorf("job %d recorder pid = %d", i, rec.Pid())
		}
		if len(rec.Events()) == 0 {
			t.Errorf("job %d captured no events", i)
		}
	}
}

// TestRunObservesHistograms: a metrics-instrumented run must populate the
// job-latency and invalidation-burst histograms deterministically.
func TestRunObservesHistograms(t *testing.T) {
	run := func() obs.Snapshot {
		m := obs.NewMetrics()
		if _, err := Run(context.Background(), []Job{job(1), job(2)}, Options{Workers: 2, Metrics: m}); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	s := run()
	byName := map[string]obs.HistogramSnapshot{}
	for _, h := range s.Histograms {
		byName[h.Name] = h
	}
	ticks, ok := byName[obs.HistJobTicks]
	if !ok || ticks.Count != 2 {
		t.Fatalf("job_ticks = %+v, want one observation per job", ticks)
	}
	burst, ok := byName[obs.HistInvalBurst]
	if !ok || burst.Count == 0 {
		t.Fatalf("inval_burst = %+v, want folded fanout observations", burst)
	}
	// Deterministic: a repeat run lands every observation in the same
	// buckets.
	if again := run(); !reflect.DeepEqual(again.Histograms, s.Histograms) {
		t.Error("histograms differ between identical runs")
	}
}

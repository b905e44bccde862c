package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dirsim/internal/coherence"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

// TestParallelMatchesSequential is the core determinism contract of the
// decode-once/fan-out driver: with every registered engine in one lockstep
// run over a real workload, the parallel path must produce Stats that are
// deeply equal to the sequential path's, whatever the worker count.
func TestParallelMatchesSequential(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.POPS(40_000))
	if err != nil {
		t.Fatal(err)
	}
	schemes := coherence.EngineNames()
	cfg := coherence.Config{Caches: 4}
	seq, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), schemes, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, len(schemes), len(schemes) + 7} {
		par, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), schemes, cfg,
			Options{Parallel: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].Scheme != seq[i].Scheme {
				t.Fatalf("workers=%d: scheme order %s vs %s", workers, par[i].Scheme, seq[i].Scheme)
			}
			if !reflect.DeepEqual(par[i].Stats, seq[i].Stats) {
				t.Errorf("workers=%d: %s stats differ from sequential", workers, par[i].Scheme)
			}
		}
	}
}

// Warm-up semantics must survive the fan-out: the measured window starts at
// exactly WarmupRefs on every worker.
func TestParallelMatchesSequentialWithWarmup(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.POPS(20_000))
	if err != nil {
		t.Fatal(err)
	}
	schemes := []string{"dir0b", "dragon", "wti"}
	cfg := coherence.Config{Caches: 4}
	for _, warmup := range []int{1, batchRefs - 1, batchRefs, batchRefs + 1, 10_000, 30_000} {
		opts := Options{WarmupRefs: warmup, IncludeFirstRefCosts: true}
		seq, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), schemes, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Parallel = 3
		par, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), schemes, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if !reflect.DeepEqual(par[i].Stats, seq[i].Stats) {
				t.Errorf("warmup=%d: %s stats differ from sequential", warmup, par[i].Scheme)
			}
		}
	}
}

// endlessReader yields an unbounded reference stream over a small block
// set, so only cancellation can end the run.
type endlessReader struct{ n uint64 }

func (r *endlessReader) Next() (trace.Ref, error) {
	r.n++
	kind := trace.Read
	if r.n%5 == 0 {
		kind = trace.Write
	}
	return trace.Ref{CPU: uint8(r.n % 4), Kind: kind, Addr: (r.n % 512) * 16}, nil
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (or a deadline passes), so worker leaks surface as failures
// without flaking on scheduler timing.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// Cancelling mid-trace must end the run within a batch, return the
// context's error, and leave no worker goroutines behind — for both
// drivers.
func TestRunCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var seen int
		opts := Options{Parallel: workers, OnProgress: func(n int) {
			seen += n
			if seen >= 3*batchRefs {
				cancel()
			}
		}}
		_, err := RunSchemes(ctx, &endlessReader{}, []string{"dir0b", "dragon", "wti", "dir1nb"},
			coherence.Config{Caches: 4}, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The driver stops within a batch of the cancel: the decode loop
		// checks the context each batch, so it reads at most a few more
		// batches after the callback fired.
		if seen > 10*batchRefs {
			t.Errorf("workers=%d: %d refs decoded after cancel at %d", workers, seen, 3*batchRefs)
		}
		waitForGoroutines(t, baseline)
	}
}

// A context that expires while workers are mid-stream must also unwind
// cleanly (exercises the select-on-send path when channels are full).
func TestRunDeadline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := RunSchemes(ctx, &endlessReader{}, coherence.EngineNames(),
		coherence.Config{Caches: 4}, Options{Parallel: 8})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitForGoroutines(t, baseline)
}

// A decode error (trace needs more caches than the engines have) must
// shut the parallel pool down with the same error the sequential driver
// reports, leaking nothing.
func TestParallelDecodeError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tr := trace.Slice{{CPU: 9, Kind: trace.Read, Addr: 1}}
	_, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), []string{"dir0b", "wti"},
		coherence.Config{Caches: 4}, Options{Parallel: 2})
	if err == nil {
		t.Fatal("out-of-range CPU accepted")
	}
	waitForGoroutines(t, baseline)
}

// OnProgress reports decode counts at batch granularity and must sum to
// the trace length on both drivers.
func TestOnProgressCounts(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.PERO(10_000))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var total int
		_, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), []string{"dir0b", "wti"},
			coherence.Config{Caches: 4},
			Options{Parallel: workers, OnProgress: func(n int) { total += n }})
		if err != nil {
			t.Fatal(err)
		}
		if total != len(tr) {
			t.Errorf("workers=%d: progress total %d, want %d", workers, total, len(tr))
		}
	}
}

// The options layer rejects a negative worker count and clamps the rest.
func TestParallelOptionValidation(t *testing.T) {
	if err := (Options{Parallel: -1}).Validate(); err == nil {
		t.Error("negative Parallel accepted")
	}
	if w := (Options{Parallel: 99}).workers(3); w != 3 {
		t.Errorf("workers clamped to %d, want 3", w)
	}
	if w := (Options{}).workers(3); w != 1 {
		t.Errorf("default workers = %d, want 1", w)
	}
}

// The fan-out recycles a fixed pool of batch buffers, so a parallel run's
// allocations must not grow with the number of batches in the trace.
func TestParallelAllocsIndependentOfTraceLength(t *testing.T) {
	allocs := func(batches int) float64 {
		// endlessReader cycles over a fixed block set, so engine state
		// stops growing after the first pass and any allocation that
		// scales with the trace belongs to the driver.
		tr := make(trace.Slice, batches*batchRefs)
		er := &endlessReader{}
		for i := range tr {
			tr[i], _ = er.Next()
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), []string{"dir0b", "wti"},
				coherence.Config{Caches: 4}, Options{Parallel: 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(40)
	if long > short+2 {
		t.Errorf("Parallel=2 allocations grow with trace length: %.0f for 10 batches, %.0f for 40", short, long)
	}
}

// Bound and unbound engines can share a run and a worker: with every
// other engine driven through Access, each engine's Stats match an
// all-bound run, inline and fanned out, across a warm-up reset that falls
// inside a batch.
func TestMixedBoundUnboundMatchesBound(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.POPS(20_000))
	if err != nil {
		t.Fatal(err)
	}
	schemes := coherence.EngineNames()
	cfg := coherence.Config{Caches: 4}
	warmup := batchRefs + 13
	want, err := RunSchemes(context.Background(), trace.NewSliceReader(tr), schemes, cfg,
		Options{WarmupRefs: warmup})
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 2, 3} {
		engines := make([]coherence.Engine, len(schemes))
		for i, name := range schemes {
			e, err := coherence.NewByName(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 1 {
				e = unboundEngine{e}
			}
			engines[i] = e
		}
		got, err := Run(context.Background(), trace.NewSliceReader(tr), engines,
			Options{WarmupRefs: warmup, Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range want {
			if got[i].Scheme != want[i].Scheme {
				t.Fatalf("parallel=%d: scheme order %s vs %s", parallel, got[i].Scheme, want[i].Scheme)
			}
			if !reflect.DeepEqual(got[i].Stats, want[i].Stats) {
				t.Errorf("parallel=%d: %s (bound=%v) stats differ from the all-bound run",
					parallel, got[i].Scheme, i%2 == 0)
			}
		}
	}
}

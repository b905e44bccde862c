package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dirsim/internal/coherence"
	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
)

// panicJob's trace source panics when opened.
func panicJob(label string) Job {
	return Job{
		Label: label,
		Source: func() (trace.Reader, error) {
			panic("poisoned trace source")
		},
		Schemes: []string{"dir0b"},
		Config:  coherence.Config{Caches: 4},
	}
}

// A panicking job becomes a *JobError wrapping a *PanicError; its
// neighbours still complete, and OnResult/OnError interleave in index
// order.
func TestPanicContainment(t *testing.T) {
	jobs := []Job{job(1), panicJob("poison"), job(2)}
	m := obs.NewMetrics()
	var order []string
	out, err := Run(context.Background(), jobs, Options{
		Workers: 3,
		Metrics: m,
		OnResult: func(i int, rs []sim.Result) {
			order = append(order, fmt.Sprintf("ok %d", i))
		},
		OnError: func(i int, err error) {
			order = append(order, fmt.Sprintf("err %d", i))
		},
	})
	if err == nil {
		t.Fatal("run with a panicking job reported success")
	}
	var je *JobError
	if !errors.As(err, &je) || je.Index != 1 || je.Label != "poison" {
		t.Fatalf("error = %v, want a *JobError for job 1", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want a wrapped *PanicError", err)
	}
	if pe.Value != "poisoned trace source" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = %v (stack %d bytes), want the panic value and a stack", pe.Value, len(pe.Stack))
	}
	if out[0] == nil || out[2] == nil {
		t.Error("healthy jobs lost their results")
	}
	want := []string{"ok 0", "err 1", "ok 2"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("delivery order = %v, want %v", order, want)
	}
	s := m.Snapshot()
	if s.Panics != 1 || s.Failures != 1 {
		t.Errorf("panics=%d failures=%d, want 1 and 1", s.Panics, s.Failures)
	}
}

// A reader that panics mid-stream (not just at open) is also contained.
type midStreamPanicReader struct{ n int }

func (r *midStreamPanicReader) Next() (trace.Ref, error) {
	r.n++
	if r.n > 100 {
		panic("mid-stream corruption")
	}
	return trace.Ref{CPU: uint8(r.n % 4), Kind: trace.Read, Addr: uint64(r.n * 16)}, nil
}

func TestPanicContainmentMidStream(t *testing.T) {
	jobs := []Job{{
		Label:   "mid-stream",
		Source:  func() (trace.Reader, error) { return &midStreamPanicReader{}, nil },
		Schemes: []string{"dir0b"},
		Config:  coherence.Config{Caches: 4},
	}}
	_, err := Run(context.Background(), jobs, Options{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want a wrapped *PanicError", err)
	}
}

// Transient failures are retried up to Retry.Max attempts with the
// policy's deterministic backoff; the same seed produces the same sleep
// schedule, a different seed a different one.
func TestRetryDeterministicSchedule(t *testing.T) {
	runOnce := func(seed int64) ([]time.Duration, map[int]int, error) {
		var delays []time.Duration
		attemptsByJob := map[int]int{}
		jobs := []Job{job(1), job(2)}
		_, err := Run(context.Background(), jobs, Options{
			Retry: RetryPolicy{Max: 3, Base: time.Millisecond, Seed: seed},
			Sleep: func(d time.Duration) { delays = append(delays, d) },
			TransientFault: func(index, attempt int) error {
				attemptsByJob[index] = attempt
				if attempt <= 2 {
					return Transient(fmt.Errorf("flaky infra (job %d attempt %d)", index, attempt))
				}
				return nil
			},
		})
		return delays, attemptsByJob, err
	}
	d1, attempts, err := runOnce(7)
	if err != nil {
		t.Fatalf("retries should have absorbed the transient faults: %v", err)
	}
	for i, a := range attempts {
		if a != 3 {
			t.Errorf("job %d ran %d attempts, want 3", i, a)
		}
	}
	if len(d1) != 4 { // 2 jobs × 2 retries
		t.Fatalf("%d backoff sleeps, want 4", len(d1))
	}
	d2, _, err := runOnce(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("same seed gave different schedules: %v vs %v", d1, d2)
	}
	d3, _, err := runOnce(8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(d1, d3) {
		t.Errorf("different seeds gave identical schedules: %v", d1)
	}
}

// Permanent failures must not burn retry budget.
func TestPermanentErrorsFailFast(t *testing.T) {
	calls := 0
	jobs := []Job{job(1)}
	_, err := Run(context.Background(), jobs, Options{
		Retry: RetryPolicy{Max: 5, Base: time.Millisecond},
		TransientFault: func(index, attempt int) error {
			calls++
			return errors.New("hard config error")
		},
	})
	var je *JobError
	if !errors.As(err, &je) || je.Attempts != 1 {
		t.Fatalf("error = %v, want a 1-attempt JobError", err)
	}
	if calls != 1 {
		t.Errorf("permanent error attempted %d times, want 1", calls)
	}
}

// Backoff is a pure function of (Seed, index, attempt): exponential with
// jitter in [d/2, d], capped, and zero without a base.
func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{Max: 5, Base: 10 * time.Millisecond, Cap: 40 * time.Millisecond, Seed: 3}
	for attempt := 1; attempt <= 4; attempt++ {
		full := p.Base << uint(attempt-1)
		if full > p.Cap {
			full = p.Cap
		}
		d := p.Backoff(9, attempt)
		if d < full/2 || d > full {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, full/2, full)
		}
		if d != p.Backoff(9, attempt) {
			t.Errorf("attempt %d: backoff is not deterministic", attempt)
		}
	}
	if d := (RetryPolicy{Max: 2}).Backoff(0, 1); d != 0 {
		t.Errorf("zero-base backoff = %v, want 0", d)
	}
	if a, b := p.Backoff(1, 1), p.Backoff(2, 1); a == b {
		t.Errorf("distinct jobs share jitter %v; schedules would retry in lockstep", a)
	}
}

// slowReader produces refs normally, then slows to a crawl after n refs —
// the wedged-source shape the stall watchdog exists for.
type slowReader struct {
	n     int
	after int
	delay time.Duration
}

func (r *slowReader) Next() (trace.Ref, error) {
	r.n++
	if r.n > r.after {
		time.Sleep(r.delay)
	}
	return trace.Ref{CPU: uint8(r.n % 4), Kind: trace.Read, Addr: uint64(r.n % 512 * 16)}, nil
}

func TestStallWatchdog(t *testing.T) {
	jobs := []Job{{
		Label: "wedged",
		// Fast for > one 4096-ref batch (so the watchdog resets on real
		// progress at least once), then 20ms per ref — far beyond the
		// stall interval relative to batch time.
		Source:  func() (trace.Reader, error) { return &slowReader{after: 5000, delay: 20 * time.Millisecond}, nil },
		Schemes: []string{"dir0b"},
		Config:  coherence.Config{Caches: 4},
	}}
	start := time.Now()
	_, err := Run(context.Background(), jobs, Options{StallTimeout: 100 * time.Millisecond})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("error = %v, want ErrStalled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stalled job held its worker for %v", elapsed)
	}
}

func TestJobDeadline(t *testing.T) {
	jobs := []Job{{
		Label:   "slow",
		Source:  func() (trace.Reader, error) { return &slowReader{after: 0, delay: 2 * time.Millisecond}, nil },
		Schemes: []string{"dir0b"},
		Config:  coherence.Config{Caches: 4},
	}}
	_, err := Run(context.Background(), jobs, Options{JobTimeout: 50 * time.Millisecond})
	if !errors.Is(err, ErrJobDeadline) {
		t.Fatalf("error = %v, want ErrJobDeadline", err)
	}
}

// Transient and IsTransient must classify through wrapping.
func TestTransientClassification(t *testing.T) {
	base := errors.New("io hiccup")
	if IsTransient(base) {
		t.Error("plain error classified transient")
	}
	wrapped := fmt.Errorf("job 3: %w", Transient(base))
	if !IsTransient(wrapped) {
		t.Error("wrapped transient error not recognised")
	}
	if !errors.Is(wrapped, base) {
		t.Error("Transient broke the error chain")
	}
	je := &JobError{Index: 2, Label: "cell", Attempts: 3, Err: Transient(base)}
	if !IsTransient(je) {
		t.Error("JobError did not forward transience")
	}
	if je.Error() != "cell (after 3 attempts): io hiccup" {
		t.Errorf("JobError message = %q", je.Error())
	}
}

// The manifest round-trips through JSON with counts consistent with its
// failures, and extracts attempt counts from wrapped JobErrors.
func TestManifestWrite(t *testing.T) {
	man := NewManifest("sweep", 6)
	man.Record(1, "", &JobError{Index: 1, Label: "cell b", Attempts: 3, Err: errors.New("boom")})
	man.Record(4, "cell e", errors.New("torn trace"))
	path := filepath.Join(t.TempDir(), "sub", "failures.json")
	if err := man.Write(path); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	path = filepath.Join(t.TempDir(), "failures.json")
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	want := Manifest{
		Command: "sweep", Total: 6, Succeeded: 4, Failed: 2,
		Failures: []Failure{
			{Index: 1, Label: "cell b", Attempts: 3, Error: "boom"},
			{Index: 4, Label: "cell e", Attempts: 1, Error: "torn trace"},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("manifest = %+v\nwant %+v", got, want)
	}
}

// An empty manifest still marshals with an empty failures array, not
// null — consumers index into it unconditionally.
func TestManifestEmptyFailuresArray(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failures.json")
	if err := NewManifest("paper", 3).Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("manifest is not valid JSON")
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["failures"]) != "[]" {
		t.Errorf("failures = %s, want []", raw["failures"])
	}
}

// TestGuardForwardsChunks checks that a guarded chunked reader stays
// chunked, yields its source's stream, and stops with the context's cause
// at the next chunk once cancelled; a per-reference source keeps its
// per-reference guard.
func TestGuardForwardsChunks(t *testing.T) {
	src := make(trace.Slice, 10_000)
	for i := range src {
		src[i] = trace.Ref{CPU: uint8(i % 4), Kind: trace.Read, Addr: uint64(i) * 16}
	}
	for _, c := range []int{1, 4095, 4096, len(src) + 1} {
		ctx, cancel := context.WithCancelCause(context.Background())
		cr, ok := guard(ctx, trace.NewSliceReader(src)).(trace.ChunkReader)
		if !ok {
			t.Fatal("guarded SliceReader is not a ChunkReader")
		}
		var got trace.Slice
		buf := make([]trace.Ref, c)
		for {
			refs, err := cr.ReadChunk(buf)
			got = append(got, refs...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, src) {
			t.Errorf("chunk %d: guarded ReadChunk differs from the source", c)
		}
		cr = guard(ctx, trace.NewSliceReader(src)).(trace.ChunkReader)
		cancel(ErrStalled)
		if refs, err := cr.ReadChunk(buf); len(refs) != 0 || !errors.Is(err, ErrStalled) {
			t.Errorf("chunk %d after cancel: %d references, err %v; want none and ErrStalled", c, len(refs), err)
		}
	}
	if _, ok := guard(context.Background(), &slowReader{}).(trace.ChunkReader); ok {
		t.Error("guard made a per-reference reader chunked")
	}
}

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

// A failing job runs once: its source is opened exactly once and the
// error comes back wrapped in a JobError.
func TestPermanentErrorsFailFast(t *testing.T) {
	opens := 0
	jobs := []Job{{
		Label: "bad",
		Source: func() (trace.Reader, error) {
			opens++
			return nil, errors.New("hard config error")
		},
		Schemes: []string{"dir0b"},
		Config:  coherence.Config{Caches: 4},
	}}
	_, err := Run(context.Background(), jobs, Options{})
	var je *JobError
	if !errors.As(err, &je) || je.Index != 0 || je.Label != "bad" {
		t.Fatalf("error = %v, want a JobError for job 0", err)
	}
	if opens != 1 {
		t.Errorf("failing job opened its source %d times, want 1", opens)
	}
}

// slowReader produces refs normally, then slows to a crawl after n refs.
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

// A JobError names the job by label, or by index when it has none.
func TestJobErrorMessage(t *testing.T) {
	base := errors.New("io hiccup")
	je := &JobError{Index: 2, Label: "cell", Err: base}
	if je.Error() != "cell: io hiccup" {
		t.Errorf("JobError message = %q", je.Error())
	}
	if !errors.Is(je, base) {
		t.Error("JobError broke the error chain")
	}
	if got := (&JobError{Index: 2, Err: base}).Error(); got != "job 2: io hiccup" {
		t.Errorf("unlabelled JobError message = %q", got)
	}
}

// The manifest round-trips through JSON with counts consistent with its
// failures, and takes labels and errors from wrapped JobErrors.
func TestManifestWrite(t *testing.T) {
	man := NewManifest("sweep", 6)
	man.Record(1, "", &JobError{Index: 1, Label: "cell b", Err: errors.New("boom")})
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
			{Index: 1, Label: "cell b", Error: "boom"},
			{Index: 4, Label: "cell e", Error: "torn trace"},
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
		cancel(ErrJobDeadline)
		if refs, err := cr.ReadChunk(buf); len(refs) != 0 || !errors.Is(err, ErrJobDeadline) {
			t.Errorf("chunk %d after cancel: %d references, err %v; want none and ErrJobDeadline", c, len(refs), err)
		}
	}
	if _, ok := guard(context.Background(), &slowReader{}).(trace.ChunkReader); ok {
		t.Error("guard made a per-reference reader chunked")
	}
}

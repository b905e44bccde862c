package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dirsim/internal/atomicio"
	"dirsim/internal/trace"
)

// This file is the pool's failure discipline: error classification
// (transient vs permanent), deterministic retry backoff, panic
// containment, the per-job watchdog plumbing, and the machine-readable
// failure manifest degraded runs emit.

// ErrStalled is the cause a job fails with when its stall watchdog fires:
// no reference-batch progress within Options.StallTimeout.
var ErrStalled = errors.New("runner: job made no progress within the stall watchdog interval")

// ErrJobDeadline is the cause a job fails with when it exceeds
// Options.JobTimeout.
var ErrJobDeadline = errors.New("runner: job exceeded its deadline")

// transientError marks an error as retryable via the Transient() bool
// method convention, so packages injecting transient failures need not
// import runner.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// Transient wraps err so the retry policy recognises it as retryable.
func Transient(err error) error { return &transientError{err: err} }

// IsTransient reports whether err carries a Transient() bool marker
// anywhere in its chain. Only transient errors are retried: permanent
// faults (corrupt traces, panics, config errors) fail fast and land in
// the manifest instead of burning retry budget.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// RetryPolicy bounds how a job's transient failures are retried. The
// backoff schedule is a pure function of (Seed, job index, attempt), so
// the same policy always produces the same delays — retry behaviour is
// as reproducible as the simulation itself.
type RetryPolicy struct {
	// Max is the maximum number of attempts per job, including the
	// first; values below 2 mean no retries.
	Max int
	// Base is the backoff before the second attempt; it doubles with
	// every further attempt. Zero means retry immediately.
	Base time.Duration
	// Cap bounds a single delay; zero means uncapped.
	Cap time.Duration
	// Seed drives the jitter stream.
	Seed int64
}

// Backoff returns the delay before retrying job index after its
// attempt-th failed attempt (attempt ≥ 1): exponential in the attempt
// with deterministic jitter in [d/2, d], the spread that keeps a pool of
// simultaneously failing jobs from retrying in lockstep.
func (p RetryPolicy) Backoff(index, attempt int) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 20 { // 2^20× base is already beyond any real Cap
		shift = 20
	}
	d := p.Base << uint(shift)
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	const mix = int64(-0x61c8864680b583eb) // golden-ratio multiplier, as a signed 64-bit constant
	rng := rand.New(rand.NewSource(p.Seed ^ int64(index)*mix ^ int64(attempt)<<32))
	half := int64(d / 2)
	return time.Duration(half + rng.Int63n(half+1))
}

// JobError is the failure of one job, carrying its identity and how many
// attempts were spent. Run wraps every per-job error in one, so callers
// can rebuild exactly which grid cells failed from the joined error or
// the OnError callback.
type JobError struct {
	// Index is the job's position in the slice passed to Run.
	Index int
	// Label is the job's Label (may be empty).
	Label string
	// Attempts is how many attempts ran, including the failing one.
	Attempts int
	// Err is the final attempt's error.
	Err error
}

// Error implements error.
func (e *JobError) Error() string {
	name := e.Label
	if name == "" {
		name = fmt.Sprintf("job %d", e.Index)
	}
	if e.Attempts > 1 {
		return fmt.Sprintf("%s (after %d attempts): %v", name, e.Attempts, e.Err)
	}
	return fmt.Sprintf("%s: %v", name, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// PanicError is a recovered panic from inside a job: the pool converts
// panics to errors so one poisoned cell can never kill a sweep.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error. The stack stays out of the message (manifests
// embed it) and is available on the field.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// guardedReader makes a job's trace reader observe its watchdog/deadline
// context between references, so a cancelled attempt unwinds promptly
// instead of decoding out the rest of a batch. It is only layered on when
// a per-job guard is configured — the per-ref ctx check stays off the
// default hot path.
type guardedReader struct {
	ctx context.Context
	rd  trace.Reader
}

// guard wraps rd in a guardedReader observing ctx. A chunked reader stays
// chunked and is checked once per chunk: the chunked readers (in-memory
// traces and the generator) produce a chunk without blocking, so only a
// per-reference source can stall partway through one.
func guard(ctx context.Context, rd trace.Reader) trace.Reader {
	g := &guardedReader{ctx: ctx, rd: rd}
	if cr, ok := rd.(trace.ChunkReader); ok {
		return &guardedChunkReader{guardedReader: g, cr: cr}
	}
	return g
}

// Next implements trace.Reader.
func (g *guardedReader) Next() (trace.Ref, error) {
	if g.ctx.Err() != nil {
		return trace.Ref{}, context.Cause(g.ctx)
	}
	return g.rd.Next()
}

// guardedChunkReader is a guardedReader over a trace.ChunkReader.
type guardedChunkReader struct {
	*guardedReader
	cr trace.ChunkReader
}

// ReadChunk implements trace.ChunkReader.
func (g *guardedChunkReader) ReadChunk(buf []trace.Ref) ([]trace.Ref, error) {
	if g.ctx.Err() != nil {
		return nil, context.Cause(g.ctx)
	}
	return g.cr.ReadChunk(buf)
}

// Manifest is the machine-readable record of a degraded run: which jobs
// failed, with what error, after how many attempts. CLIs write it next
// to their partial results so a later -resume (or a human) can replay
// exactly the missing cells.
type Manifest struct {
	// Command identifies the producing tool ("sweep", "paper", ...).
	Command string `json:"command"`
	// Total is the number of jobs (or sections) the run attempted.
	Total int `json:"jobs_total"`
	// Succeeded is Total minus the recorded failures.
	Succeeded int `json:"jobs_succeeded"`
	// Failed is the number of recorded failures.
	Failed int `json:"jobs_failed"`
	// Failures lists every failed job in completion order.
	Failures []Failure `json:"failures"`
}

// Failure is one failed job in a Manifest.
type Failure struct {
	Index    int    `json:"index"`
	Label    string `json:"label"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// NewManifest returns an empty manifest for a run of total jobs.
func NewManifest(command string, total int) *Manifest {
	return &Manifest{Command: command, Total: total, Failures: []Failure{}}
}

// Record adds one failure. index and label identify the job in the
// caller's own numbering (a resumed sweep records global grid indices,
// not pool indices); attempt count is recovered from a wrapped JobError
// when present.
func (m *Manifest) Record(index int, label string, err error) {
	attempts := 1
	var je *JobError
	if errors.As(err, &je) {
		attempts = je.Attempts
		if label == "" {
			label = je.Label
		}
		err = je.Err
	}
	m.Failed++
	m.Failures = append(m.Failures, Failure{
		Index: index, Label: label, Attempts: attempts, Error: err.Error(),
	})
}

// Write marshals the manifest and writes it crash-safely to path.
func (m *Manifest) Write(path string) error {
	m.Succeeded = m.Total - m.Failed
	if m.Succeeded < 0 {
		m.Succeeded = 0
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(data, '\n'))
}

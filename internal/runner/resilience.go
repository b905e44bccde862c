package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"dirsim/internal/atomicio"
	"dirsim/internal/trace"
)

// This file is the pool's failure discipline: panic containment, the
// per-job deadline plumbing, and the machine-readable failure manifest
// degraded runs emit.

// ErrJobDeadline is the cause a job fails with when it exceeds
// Options.JobTimeout.
var ErrJobDeadline = errors.New("runner: job exceeded its deadline")

// JobError is the failure of one job, carrying its identity. Run wraps
// every per-job error in one, so callers can rebuild exactly which grid
// cells failed from the joined error or the OnError callback.
type JobError struct {
	// Index is the job's position in the slice passed to Run.
	Index int
	// Label is the job's Label (may be empty).
	Label string
	// Err is the job's error.
	Err error
}

// Error implements error.
func (e *JobError) Error() string {
	name := e.Label
	if name == "" {
		name = fmt.Sprintf("job %d", e.Index)
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

// guardedReader makes a job's trace reader observe its deadline context
// between references, so a cancelled job unwinds promptly instead of
// decoding out the rest of a batch. It is only layered on when a per-job
// deadline is configured — the per-ref ctx check stays off the default
// hot path.
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
// failed and with what error. CLIs write it next to their partial
// results so a later -resume (or a human) can replay exactly the missing
// cells.
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
	Index int    `json:"index"`
	Label string `json:"label"`
	Error string `json:"error"`
}

// NewManifest returns an empty manifest for a run of total jobs.
func NewManifest(command string, total int) *Manifest {
	return &Manifest{Command: command, Total: total, Failures: []Failure{}}
}

// Record adds one failure. index and label identify the job in the
// caller's own numbering (a resumed sweep records global grid indices,
// not pool indices); a wrapped JobError supplies the label when label is
// empty and is unwrapped to the job's own error.
func (m *Manifest) Record(index int, label string, err error) {
	var je *JobError
	if errors.As(err, &je) {
		if label == "" {
			label = je.Label
		}
		err = je.Err
	}
	m.Failed++
	m.Failures = append(m.Failures, Failure{
		Index: index, Label: label, Error: err.Error(),
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

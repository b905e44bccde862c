package server

import (
	"context"
	"encoding/json"
	"errors"
	"sync"

	"dirsim/internal/flight"
	"dirsim/internal/obs"
	"dirsim/internal/otrace"
	"dirsim/internal/spec"
)

// Job lifecycle states.
const (
	statusQueued   = "queued"
	statusRunning  = "running"
	statusDone     = "done"
	statusFailed   = "failed"
	statusCanceled = "canceled"
)

// errClientGone cancels a job whose last interested client disconnected
// before completion.
var errClientGone = errors.New("server: every watching client disconnected")

// Event is one NDJSON row on a job's /events stream.
type Event struct {
	// Seq orders events within the job; streams replay from 0.
	Seq int `json:"seq"`
	// Type is "status", "progress", "chunk", "done" or "error".
	Type string `json:"type"`
	// Status carries the new state on "status" events.
	Status string `json:"status,omitempty"`
	// Refs and the job counters accompany "progress" events.
	Refs      uint64 `json:"refs,omitempty"`
	JobsDone  uint64 `json:"jobs_done,omitempty"`
	JobsTotal uint64 `json:"jobs_total,omitempty"`
	// CellsDone/CellsTotal accompany "chunk" events: how far a chunked
	// sweep has progressed through its grid.
	CellsDone  int `json:"cells_done,omitempty"`
	CellsTotal int `json:"cells_total,omitempty"`
	// Cells carries the chunk's finished cell documents (a JSON array of
	// {spec_version, spec, results} objects) on "chunk" events — partial
	// results stream to clients before the sweep completes.
	Cells json.RawMessage `json:"cells,omitempty"`
	// Error carries the failure message on "error" events.
	Error string `json:"error,omitempty"`
}

// job is one submitted simulation: a spec, its execution state, and the
// event log streaming clients replay. The id is the spec's content hash,
// which is what makes concurrent identical submissions collapse onto one
// job (singleflight) for free.
type job struct {
	id    string
	req   spec.Request
	cells []spec.Cell
	// cellHashes are the cells' content hashes — the keys of the per-cell
	// result cache that chunk checkpointing and crash recovery rest on.
	cellHashes []string

	// Admission state, owned by the server under s.mu.
	tenant *tenant
	class  int
	// cost is the job's DRR price (see jobCost).
	cost int
	// admittedNanos stamps admission for the admit-wait histograms (zero
	// when the daemon runs clock-free).
	admittedNanos int64

	// Execution cursor, touched only by the single executor currently
	// running the job (jobs move between executors across yields, never
	// run on two at once). cellDocs[i] holds cell i's finished document
	// bytes; nextCell is the first cell not yet finished.
	cellDocs [][]byte
	nextCell int

	// ctx is derived from the server's base context; cancel carries the
	// cause (client disconnect, shutdown).
	ctx    context.Context
	cancel context.CancelCauseFunc

	// metrics are this job's own counters, folded into the server-wide
	// set when the job finishes.
	metrics *obs.Metrics

	// Fabric tracing state. traceID is the job's otrace trace id (the
	// submitter's via X-Dirsim-Trace, else the job hash); span covers
	// admission to terminal, queueSpan admission to first dispatch, and
	// spanCtx parents every child span the executors start. All are set
	// once at admission and touched only by the single executor running
	// the job (finishJob finishes them exactly once behind j.claim).
	traceID   string
	span      otrace.Active
	queueSpan otrace.Active
	spanCtx   otrace.Context

	mu       sync.Mutex
	status   string
	everRan  bool   // has left queued at least once (admit-wait observed)
	claimed  bool   // a finishJob call owns the terminal transition
	result   []byte // completed document; non-nil iff status == done
	errMsg   string
	events   []Event
	wake     chan struct{} // closed and replaced on every event append
	watchers int
	detached bool          // true: survives losing all watchers
	done     chan struct{} // closed on any terminal status

	// recorders holds one flight recorder per cell when the daemon runs
	// with tracing on. Rings are written by the runner's workers, so the
	// trace endpoint serves them only after the job is terminal.
	recorders []*flight.Recorder
}

func newJob(ctx context.Context, id string, req spec.Request, cells []spec.Cell, hashes []string) *job {
	jctx, cancel := context.WithCancelCause(ctx)
	j := &job{
		id:         id,
		req:        req,
		cells:      cells,
		cellHashes: hashes,
		cellDocs:   make([][]byte, len(cells)),
		ctx:        jctx,
		cancel:     cancel,
		metrics:    obs.NewMetrics(),
		status:     statusQueued,
		wake:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	j.appendEvent(Event{Type: "status", Status: statusQueued})
	return j
}

// tenantName names the tenant charged for the job's cache writes
// (empty for synthetic jobs with no admission state).
func (j *job) tenantName() string {
	if j.tenant == nil {
		return ""
	}
	return j.tenant.Name
}

// completedJob wraps cached result bytes in a terminal job so the cache
// path and the live path serve responses identically.
func completedJob(id string, result []byte) *job {
	j := &job{
		id:     id,
		status: statusDone,
		result: result,
		wake:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	j.appendEvent(Event{Type: "status", Status: statusDone})
	j.appendEvent(Event{Type: "done"})
	close(j.done)
	return j
}

// appendEvent stamps a sequence number, records the event and wakes every
// stream blocked on the previous wake channel.
func (j *job) appendEvent(e Event) {
	j.mu.Lock()
	e.Seq = len(j.events)
	j.events = append(j.events, e)
	close(j.wake)
	j.wake = make(chan struct{})
	j.mu.Unlock()
}

// eventsFrom returns the events at sequence ≥ from, plus the channel that
// will be closed when more arrive and whether the job is terminal.
func (j *job) eventsFrom(from int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var tail []Event
	if from < len(j.events) {
		tail = append(tail, j.events[from:]...)
	}
	return tail, j.wake, j.terminalLocked()
}

func (j *job) terminalLocked() bool {
	return j.status == statusDone || j.status == statusFailed || j.status == statusCanceled
}

// setRunning transitions queued → running, reporting whether this is the
// job's first time off the queue (the admit-wait sample). A job already
// running (or re-dispatched after a yield) appends the status event only
// on a real transition.
func (j *job) setRunning() (first bool) {
	j.mu.Lock()
	if j.status == statusRunning {
		j.mu.Unlock()
		return false
	}
	first = !j.everRan
	j.everRan = true
	j.status = statusRunning
	j.mu.Unlock()
	j.appendEvent(Event{Type: "status", Status: statusRunning})
	return first
}

// setQueued transitions a yielded job back to queued — it gave its
// executor up to interactive work and awaits re-dispatch.
func (j *job) setQueued() {
	j.mu.Lock()
	j.status = statusQueued
	j.mu.Unlock()
	j.appendEvent(Event{Type: "status", Status: statusQueued})
}

// claim reserves the job's terminal transition: exactly one call returns
// true, and nothing is visible to waiters until that caller publishes.
// The gap lets the winner fold metrics and close spans before any
// waiter is released.
func (j *job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.claimed || j.terminalLocked() {
		return false
	}
	j.claimed = true
	return true
}

// publish records the terminal state reserved by claim and releases
// waiters.
func (j *job) publish(status string, result []byte, errMsg string) {
	j.mu.Lock()
	j.status = status
	j.result = result
	j.errMsg = errMsg
	j.mu.Unlock()
	j.appendEvent(Event{Type: "status", Status: status})
	if status == statusDone {
		j.appendEvent(Event{Type: "done"})
	} else {
		j.appendEvent(Event{Type: "error", Error: errMsg})
	}
	close(j.done)
}

// snapshot returns the current state for the status endpoint.
func (j *job) snapshot() (status string, result []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.result, j.errMsg
}

// hold registers an interested client (a waiting POST or an event
// stream). release undoes it; a job whose watcher count reaches zero
// without ever having been detached is canceled — nobody is left to
// consume the result.
func (j *job) hold() {
	j.mu.Lock()
	j.watchers++
	j.mu.Unlock()
}

func (j *job) release() {
	j.mu.Lock()
	j.watchers--
	lastOut := j.watchers == 0 && !j.detached && !j.terminalLocked()
	j.mu.Unlock()
	if lastOut && j.cancel != nil {
		j.cancel(errClientGone)
	}
}

// detach marks the job as wanted regardless of connected clients (an
// asynchronous submission): it will run to completion even with no
// watchers.
func (j *job) detach() {
	j.mu.Lock()
	j.detached = true
	j.mu.Unlock()
}

// setRecorder stores cell i's flight recorder. A retried attempt calls
// again with a fresh recorder, so the stored trace is always the
// attempt that produced the job's results.
func (j *job) setRecorder(i, cells int, rec *flight.Recorder) {
	j.mu.Lock()
	if j.recorders == nil {
		j.recorders = make([]*flight.Recorder, cells)
	}
	j.recorders[i] = rec
	j.mu.Unlock()
}

// traceRecorders returns the job's recorders once it is terminal, in
// cell order (nils elided). ok is false while the job still runs — the
// rings are single-writer and must not be read mid-run.
func (j *job) traceRecorders() (recs []*flight.Recorder, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.terminalLocked() {
		return nil, false
	}
	for _, r := range j.recorders {
		if r != nil {
			recs = append(recs, r)
		}
	}
	return recs, true
}

// progressEvent folds the job's metric snapshot into a progress row.
func progressEvent(s obs.Snapshot) Event {
	return Event{
		Type:      "progress",
		Refs:      s.Refs,
		JobsDone:  s.JobsDone,
		JobsTotal: s.JobsTotal,
	}
}

// chunkEvent announces a finished chunk, carrying its cell documents as
// a raw JSON array so streaming clients receive partial sweep results as
// they land rather than one document at the end.
func chunkEvent(done, total int, cellDocs [][]byte) Event {
	var buf []byte
	buf = append(buf, '[')
	for i, d := range cellDocs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, d...)
	}
	buf = append(buf, ']')
	return Event{Type: "chunk", CellsDone: done, CellsTotal: total, Cells: buf}
}

// marshalEvent renders one NDJSON row (without the trailing newline).
func marshalEvent(e Event) []byte {
	b, err := json.Marshal(e)
	if err != nil {
		return []byte(`{"type":"error","error":"event marshal failure"}`)
	}
	return b
}

// cellHashes computes every cell's content hash — the per-cell cache
// keys a chunked job checkpoints under.
func cellHashes(cells []spec.Cell) ([]string, error) {
	hs := make([]string, len(cells))
	for i, c := range cells {
		h, err := c.Hash()
		if err != nil {
			return nil, err
		}
		hs[i] = h
	}
	return hs, nil
}

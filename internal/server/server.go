// Package server is the simulation-as-a-service layer: a stdlib-only
// HTTP daemon that accepts simulation and sweep specs as jobs, executes
// them on the shared internal/runner pool with the existing resilience
// policies, and serves results from a content-addressed cache.
//
// The core ideas:
//
//   - Jobs are content-addressed. A job's id is the SHA-256 of its
//     spec's canonical JSON, so N concurrent identical submissions
//     collapse onto one execution (singleflight) and every client reads
//     the same stored bytes — responses are byte-identical by
//     construction, not by convention.
//   - Results are cached: an in-memory LRU in front of an optional
//     on-disk store written via internal/atomicio. A repeat of a
//     finished spec never touches the runner.
//   - Accepted work is durable. With a state dir configured, every
//     admitted job is journaled (fsynced) before the submit is
//     acknowledged and resolved when it finishes; a daemon killed
//     mid-run replays the journal's live set on restart and owes its
//     clients exactly that work.
//   - Sweeps run in cell chunks. Each finished cell's document is
//     durably checkpointed in a per-cell content-addressed cache, so
//     recovery re-simulates only the missing cells, and the final
//     document splices the stored bytes verbatim — an interrupted run
//     reassembles byte-identical to an uninterrupted one.
//   - Admission is multi-tenant. API keys map requests to tenants with
//     quotas; queued work drains by weighted deficit round-robin, and
//     the interactive class (?wait=1) is dispatched strictly before
//     batch sweeps, which yield their executor at chunk boundaries when
//     interactive work is waiting.
//   - Back-pressure is explicit: the queue is bounded and quotas are
//     enforced; both answer 429 with Retry-After instead of absorbing
//     unbounded work. Bad credentials answer 403 — saturation and
//     rejection are distinct signals.
//   - Cancellation follows the client: a job holds a watcher count
//     (waiting submissions, event streams); when the last watcher of a
//     never-detached job disconnects, the job's context is cancelled
//     mid-batch. Asynchronous submissions detach the job so it runs to
//     completion unwatched.
//   - Shutdown drains: Drain stops intake (503), lets the executors
//     finish every accepted job — each result durably written before the
//     job reports done — then returns, so SIGTERM cannot lose work.
//
// The package stays clock-free (the nondeterm lint rule applies):
// anything time-based — progress throttling, retry backoff sleeps — is
// injected by the cmd layer.
package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dirsim/internal/cluster"
	"dirsim/internal/coherence"
	"dirsim/internal/flight"
	"dirsim/internal/obs"
	"dirsim/internal/otrace"
	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
)

// Config parameterises the daemon.
type Config struct {
	// Workers bounds concurrent cell simulations within one job (the
	// runner pool width). Below 1 means 1.
	Workers int
	// Executors bounds concurrently running jobs. Below 1 means 1.
	Executors int
	// QueueDepth bounds jobs accepted but not yet dispatched; a full
	// queue answers 429. Below 1 means 16.
	QueueDepth int
	// CacheEntries bounds the in-memory result LRU. Below 1 means 128.
	CacheEntries int
	// CacheDir, when non-empty, persists results as <hash>.json files
	// (written atomically) that survive restarts. Empty with a StateDir
	// set, it defaults to StateDir/results.
	CacheDir string

	// StateDir, when non-empty, makes accepted work durable: admitted
	// jobs are journaled there before the submit is acknowledged, and a
	// restarted daemon replays unresolved jobs from the journal.
	StateDir string
	// Tenants configures API-key admission. Empty means open mode: no
	// authentication, one anonymous tenant, no quotas.
	Tenants []Tenant
	// ChunkCells is how many cells of a sweep run per chunk between
	// checkpoints (and possible yields to interactive work). Below 1
	// means 16.
	ChunkCells int

	// JobTimeout, when positive, bounds each cell's wall-clock time, as
	// the CLIs' -job-timeout does; a cell exceeding it fails the job.
	JobTimeout time.Duration

	// NowNanos is the injected clock used only to throttle progress
	// events and sample admit-wait latency (cmd passes
	// time.Now().UnixNano via a closure). nil disables both.
	NowNanos func() int64
	// ProgressEvery is the minimum interval between progress events per
	// job when NowNanos is set; zero means 500ms.
	ProgressEvery time.Duration

	// Metrics, when non-nil, is the server-wide counter set /metrics
	// serves; nil allocates a fresh one.
	Metrics *obs.Metrics

	// Tracer, when non-nil, records fabric spans — job, queue, chunk,
	// cell-cache, peer-fetch, simulate, replay, cache-serve — under the
	// trace context each request carries in X-Dirsim-Trace (or a fresh
	// trace keyed by the job hash). Spans are served by
	// GET /v1/trace/{traceid} and spliced into GET /v1/jobs/{id}/trace.
	Tracer *otrace.Tracer

	// TraceSample, when positive, records a flight trace for every
	// executed job (one recorder per cell, sampling every TraceSample-th
	// reference, with phase spans), served by GET /v1/jobs/{id}/trace.
	// Zero disables per-job tracing. Traces are kept in memory only —
	// cache-restored jobs have none.
	TraceSample int

	// ClusterSource, when non-nil, makes this daemon a fleet member:
	// before simulating a cell it asks the cell's HRW owner (and on
	// miss, one sibling) for a finished document via GET /v1/cache, and
	// it serves the same endpoint to its peers, authenticated by the
	// membership's shared key. The source may be lazy (a file written
	// after startup); peering is simply off until it loads.
	ClusterSource *cluster.Source
	// ClusterSelfAddr is this daemon's bound host:port, used to find
	// itself in the membership so peering skips the local node.
	ClusterSelfAddr string
	// ClusterHTTP issues peer fetches; nil defaults to a client with a
	// 10s timeout (a peer fetch is an optimisation and must cost
	// bounded time before falling back to simulating locally).
	ClusterHTTP *http.Client
	// ClusterHealth, when non-nil, is the shared up/down state a
	// Prober maintains; down peers are skipped by the peering order.
	ClusterHealth *cluster.Health
}

// Server is the daemon: an HTTP handler plus the execution pipeline
// behind it. Create with New, launch with Start, stop with Drain.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	cache   *resultCache
	store   *jobStore

	mu      sync.Mutex
	jobs    map[string]*job
	pending []journalRecord // journal replay set, consumed by Start
	// Admission state: the tenant ring, its lookup maps, and the DRR
	// rotor per class.
	ring   []*tenant
	byName map[string]*tenant
	byKey  map[string]*tenant
	rotor  [numClasses]int
	// queued counts jobs admitted but not dispatched (across tenants);
	// busy counts executors currently running a job.
	queued int
	busy   int
	// wake is closed and replaced whenever dispatchable work may have
	// appeared; idle executors block on it (never on a condition
	// variable — context/channel flow is the package's concurrency law).
	wake       chan struct{}
	drainCh    chan struct{} // closed once, when draining begins
	draining   bool
	recovering bool
	started    bool

	baseCtx context.Context
	wg      sync.WaitGroup

	// Cluster peering state, built lazily on the first use after the
	// membership source loads (membership is immutable once loaded).
	clusterMu     sync.Mutex
	clusterRouter *cluster.Router
	clusterSelf   int
	peerCache     *cluster.CacheClient
	clusterKey    string
}

// New builds a server from the configuration.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Executors < 1 {
		cfg.Executors = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 128
	}
	if cfg.ChunkCells < 1 {
		cfg.ChunkCells = 16
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 500 * time.Millisecond
	}
	if cfg.StateDir != "" && cfg.CacheDir == "" {
		cfg.CacheDir = filepath.Join(cfg.StateDir, "results")
	}
	ring, byName, byKey, err := buildTenants(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	m := cfg.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	cache, err := newResultCache(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	for _, t := range cfg.Tenants {
		if t.MaxCacheBytes > 0 {
			cache.setQuota(t.Name, t.MaxCacheBytes)
		}
	}
	cache.onTenantBytes = func(tenant string, bytes uint64) {
		m.SetGauge("cache_bytes_tenant_"+sanitizeMetric(tenant), bytes)
	}
	if cfg.ClusterSource != nil && cfg.ClusterHTTP == nil {
		cfg.ClusterHTTP = &http.Client{Timeout: 10 * time.Second}
	}
	var store *jobStore
	var pending []journalRecord
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: state dir: %w", err)
		}
		store, pending, err = openJobStore(cfg.StateDir)
		if err != nil {
			return nil, err
		}
	}
	return &Server{
		cfg:         cfg,
		metrics:     m,
		cache:       cache,
		store:       store,
		pending:     pending,
		jobs:        map[string]*job{},
		ring:        ring,
		byName:      byName,
		byKey:       byKey,
		wake:        make(chan struct{}),
		drainCh:     make(chan struct{}),
		recovering:  len(pending) > 0,
		clusterSelf: -1,
	}, nil
}

// Start replays any journaled unfinished jobs and launches the executor
// pool. Jobs derive their contexts from ctx: cancelling it aborts
// in-flight work (the unclean path — prefer Drain).
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.baseCtx = ctx
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, rec := range pending {
		s.replay(rec)
	}
	s.mu.Lock()
	s.recovering = false
	for i := 0; i < s.cfg.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	s.mu.Unlock()
}

// replay re-admits one journaled accept. The record must still make
// sense under the current spec generation — same version, a request that
// validates, a hash that matches — otherwise the obligation is resolved
// as failed and the client resubmits (its job would live under a
// different id anyway). Work already finished before the crash (result
// on disk, resolve record lost) is resolved as done without re-running.
func (s *Server) replay(rec journalRecord) {
	traceID := rec.Trace
	if traceID == "" {
		traceID = rec.ID
	}
	rsp := s.cfg.Tracer.Start(otrace.Root(traceID), "replay")
	defer rsp.Finish()
	drop := func() {
		rsp.SetOutcome("dropped")
		_ = s.store.resolve(rec.ID, statusFailed)
	}
	if rec.SpecVersion != spec.CurrentVersion {
		drop()
		return
	}
	var req spec.Request
	if err := json.Unmarshal(rec.Request, &req); err != nil {
		drop()
		return
	}
	if err := req.Validate(); err != nil {
		drop()
		return
	}
	hash, err := req.Hash()
	if err != nil || hash != rec.ID {
		drop()
		return
	}
	if _, ok := s.cache.get(rec.ID); ok {
		rsp.SetOutcome("cached")
		_ = s.store.resolve(rec.ID, statusDone)
		return
	}
	cells, err := req.Cells()
	if err != nil {
		drop()
		return
	}
	hashes, err := cellHashes(cells)
	if err != nil {
		drop()
		return
	}
	t := s.tenantForReplay(rec.Tenant)
	j := newJob(s.baseCtx, rec.ID, req, cells, hashes)
	j.detach() // the submitting client is gone; the promise is not
	rsp.SetOutcome("requeued")
	s.traceJob(j, rsp.Context())
	j.traceID = traceID
	j.tenant = t
	j.class = classFromName(rec.Class)
	j.cost = jobCost(len(cells), j.class)
	if s.cfg.NowNanos != nil {
		j.admittedNanos = s.cfg.NowNanos()
	}
	s.mu.Lock()
	t.active++
	s.enqueueLocked(j)
	s.jobs[rec.ID] = j
	s.signalLocked()
	s.mu.Unlock()
}

// Drain stops intake and waits for every accepted job to finish — each
// with its result durably written — or for ctx to expire, whichever
// comes first. It returns nil on a complete drain, with the job journal
// compact and closed.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.store.close()
	case <-ctx.Done():
		return fmt.Errorf("server: drain aborted: %w", context.Cause(ctx))
	}
}

// Metrics returns the server-wide counter set.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// signalLocked wakes every idle executor to re-check for work. Callers
// hold s.mu; waiters re-acquire it before re-checking, so a wake can
// never be lost between the check and the block.
func (s *Server) signalLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// executor dispatches jobs picked by the fair-share scheduler until the
// server drains and the queues are empty.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		j := s.pickLocked()
		if j == nil {
			if s.draining {
				s.mu.Unlock()
				return
			}
			wake := s.wake
			s.mu.Unlock()
			select {
			case <-wake:
			case <-s.drainCh:
			}
			continue
		}
		s.busy++
		s.mu.Unlock()
		s.runJob(j)
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}
}

// traceJob opens the job's fabric spans under the submitter's trace
// context (or a fresh trace keyed by the job's content hash): the "job"
// span runs admission → terminal, the "queue" span admission → first
// dispatch, and spanCtx parents every child span the executors open.
func (s *Server) traceJob(j *job, tc otrace.Context) {
	if tc.Trace == "" {
		tc = otrace.Root(j.id)
	}
	j.traceID = tc.Trace
	j.span = s.cfg.Tracer.Start(tc, "job")
	j.spanCtx = j.span.Context()
	j.queueSpan = s.cfg.Tracer.Start(j.spanCtx, "queue")
}

// finishJob records a job's terminal state exactly once: the job's
// spans and the server-wide metrics fold, then the event log that
// releases waiters, the journal resolve that releases the durable
// obligation, and the tenant's quota slot. The fold precedes the release,
// so a client reading /metrics after its reply sees the job.
func (s *Server) finishJob(j *job, status string, result []byte, errMsg string) {
	if !j.claim() {
		return
	}
	j.queueSpan.Finish() // no-op unless the job died while queued
	j.span.SetOutcome(status)
	j.span.Finish()
	if j.metrics != nil {
		s.metrics.Merge(j.metrics.Snapshot())
	}
	j.publish(status, result, errMsg)
	// Best-effort: a failed resolve means the journal replays a finished
	// job after a restart, which recovery detects via the result cache.
	_ = s.store.resolve(j.id, status)
	s.mu.Lock()
	if j.tenant != nil {
		j.tenant.active--
	}
	s.mu.Unlock()
}

// observeAdmitWait samples queued-to-first-dispatch latency, globally
// and per tenant — the fairness signal the soak harness reads.
func (s *Server) observeAdmitWait(j *job) {
	if s.cfg.NowNanos == nil || j.admittedNanos == 0 {
		return
	}
	ms := (s.cfg.NowNanos() - j.admittedNanos) / int64(time.Millisecond)
	if ms < 0 {
		ms = 0
	}
	s.metrics.Histogram(obs.HistAdmitWait).Observe(uint64(ms))
	if j.tenant != nil {
		s.metrics.Histogram(obs.HistAdmitWait + "_tenant_" + j.tenant.metricName).Observe(uint64(ms))
	}
}

// shouldYield decides whether a batch job parks at a chunk boundary:
// only when interactive work is waiting and every executor is occupied —
// an idle executor would pick the interactive job up anyway. Draining
// disables yielding; nothing new can arrive and the queues must empty.
func (s *Server) shouldYield(j *job) bool {
	if j.class != classBatch {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && s.interactivePendingLocked() && s.busy >= s.cfg.Executors
}

// runJob executes one job chunk by chunk on the runner pool and records
// the outcome. Each chunk's cell documents are durably checkpointed
// before the next begins, and the final result document is durably
// cached before the job reports done — a client observing "done" can
// always re-read the result, and a crash loses at most the chunk in
// flight. Between chunks a batch job may yield its executor back to the
// scheduler; it resumes from its cursor when re-dispatched.
func (s *Server) runJob(j *job) {
	if err := j.ctx.Err(); err != nil {
		s.finishJob(j, statusCanceled, nil, context.Cause(j.ctx).Error())
		return
	}
	if first := j.setRunning(); first {
		s.observeAdmitWait(j)
		j.queueSpan.SetOutcome("dispatched")
		j.queueSpan.Finish()
	}
	for j.nextCell < len(j.cells) {
		end := j.nextCell + s.cfg.ChunkCells
		if end > len(j.cells) {
			end = len(j.cells)
		}
		if err := s.runChunk(j, j.nextCell, end); err != nil {
			status := statusFailed
			if j.ctx.Err() != nil {
				status = statusCanceled
				err = context.Cause(j.ctx)
			}
			s.finishJob(j, status, nil, err.Error())
			return
		}
		j.nextCell = end
		if j.nextCell < len(j.cells) && s.shouldYield(j) {
			j.setQueued()
			s.mu.Lock()
			s.requeueLocked(j)
			s.signalLocked()
			s.mu.Unlock()
			return
		}
	}
	doc, err := buildResultDoc(j)
	if err != nil {
		s.finishJob(j, statusFailed, nil, err.Error())
		return
	}
	if err := s.cache.put(j.id, doc, j.tenantName()); err != nil {
		// The run succeeded but the result is not durable: failing the
		// job is the honest outcome — a retry will rerun and re-write.
		s.finishJob(j, statusFailed, nil, err.Error())
		return
	}
	s.finishJob(j, statusDone, doc, "")
}

// runChunk finishes cells [lo, hi): cells with a checkpointed document
// are restored from the per-cell cache (this is how a recovered or
// resumed job skips completed work), the rest run on the runner pool and
// are checkpointed before the chunk reports complete. The chunk's
// documents stream to event watchers as partial results.
func (s *Server) runChunk(j *job, lo, hi int) (err error) {
	csp := s.cfg.Tracer.Start(j.spanCtx, "chunk")
	defer func() {
		if err != nil {
			csp.SetOutcome("error")
		}
		csp.Finish()
	}()
	chunkCtx := csp.Context()
	var jobs []runner.Job
	var globals []int // runner index → cell ordinal
	for i := lo; i < hi; i++ {
		if data, ok := s.cache.getCell(j.cellHashes[i]); ok {
			hitSp := s.cfg.Tracer.Start(chunkCtx, "cell-cache")
			hitSp.SetOutcome("hit")
			hitSp.Finish()
			j.cellDocs[i] = data
			continue
		}
		// Fleet mode: before simulating, ask the cell's owner (then one
		// sibling) whether the fleet already has this cell. A verified
		// hit is checkpointed locally like our own work — the fleet
		// simulates each popular cell once, every daemon can serve it.
		if data, ok := s.peerFetchCell(j.ctx, chunkCtx, j.cellHashes[i]); ok {
			if err := s.cache.putCell(j.cellHashes[i], data, j.tenantName()); err != nil {
				return err
			}
			j.cellDocs[i] = data
			continue
		}
		rj, err := j.cells[i].Job()
		if err != nil {
			return err
		}
		jobs = append(jobs, rj)
		globals = append(globals, i)
	}
	if len(jobs) > 0 {
		var th *obs.Throttle
		if s.cfg.NowNanos != nil {
			th = obs.NewThrottle(s.cfg.ProgressEvery, s.cfg.NowNanos)
		}
		ropts := runner.Options{
			Workers:    s.cfg.Workers,
			Metrics:    j.metrics,
			TraceFor:   s.traceFor(j, jobs, globals),
			JobTimeout: s.cfg.JobTimeout,
			Progress: func() {
				if th == nil || th.Ready() {
					j.appendEvent(progressEvent(j.metrics.Snapshot()))
				}
			},
		}
		simSp := s.cfg.Tracer.Start(chunkCtx, "simulate")
		results, err := runner.Run(j.ctx, jobs, ropts)
		if err != nil {
			simSp.SetOutcome("error")
			simSp.Finish()
			return err
		}
		simSp.Finish()
		for k, rs := range results {
			doc, err := buildCellDoc(j.cells[globals[k]], rs)
			if err != nil {
				return err
			}
			if err := s.cache.putCell(j.cellHashes[globals[k]], doc, j.tenantName()); err != nil {
				return err
			}
			j.cellDocs[globals[k]] = doc
		}
	}
	j.appendEvent(chunkEvent(hi, len(j.cells), j.cellDocs[lo:hi]))
	return nil
}

// peering returns the lazily built cluster routing state: the router,
// the membership, this daemon's own index, and the authenticated peer
// fetch client. ok is false until the membership source loads (and
// always, for a daemon running without -cluster-peers).
func (s *Server) peering() (router *cluster.Router, mem cluster.Membership, self int, pc *cluster.CacheClient, ok bool) {
	if s.cfg.ClusterSource == nil {
		return nil, cluster.Membership{}, -1, nil, false
	}
	mem, loaded := s.cfg.ClusterSource.Get()
	if !loaded {
		return nil, cluster.Membership{}, -1, nil, false
	}
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	if s.clusterRouter == nil {
		s.clusterRouter = cluster.NewRouter(mem, s.cfg.ClusterHealth)
		s.clusterSelf = mem.IndexOfAddr(s.cfg.ClusterSelfAddr)
		s.peerCache = &cluster.CacheClient{HTTP: s.cfg.ClusterHTTP, Key: mem.Key}
		s.clusterKey = mem.Key
	}
	return s.clusterRouter, mem, s.clusterSelf, s.peerCache, true
}

// peerFetchCell asks the fleet for a finished cell document before
// simulating it: the cell's HRW owner first, then one sibling — two
// bounded, cheap lookups, not a broadcast (the paper's point-to-point
// directory argument, applied to the service itself). Every fetched
// document goes through spec.VerifyCellDoc before use, so a document for
// other work, of another schema generation, with results for other
// schemes or with events that do not partition its references is a
// miss. Stats that a peer forged to pass those checks are not detected.
func (s *Server) peerFetchCell(ctx context.Context, parent otrace.Context, hash string) ([]byte, bool) {
	router, mem, self, pc, ok := s.peering()
	if !ok {
		return nil, false
	}
	tried := 0
	for _, pi := range router.Order(hash) {
		if pi == self || tried >= 2 {
			if pi == self {
				continue
			}
			break
		}
		tried++
		addr := mem.Peers[pi].Addr
		sp := s.cfg.Tracer.Start(parent, "peer-fetch")
		sp.SetPeer(addr)
		fctx := otrace.With(ctx, sp.Context())
		var t0 int64
		if s.cfg.NowNanos != nil {
			t0 = s.cfg.NowNanos()
		}
		data, found, err := pc.Fetch(fctx, addr, hash)
		if s.cfg.NowNanos != nil {
			ms := (s.cfg.NowNanos() - t0) / int64(time.Millisecond)
			if ms < 0 {
				ms = 0
			}
			s.metrics.Histogram(obs.HistPeerFetch).Observe(uint64(ms))
			s.metrics.Histogram(obs.HistPeerFetch + "_peer_" + sanitizeMetric(addr)).Observe(uint64(ms))
		}
		switch {
		case err != nil:
			sp.SetOutcome("error")
			s.metrics.AddCounter("cluster_peer_fetch_errors", 1)
			if cluster.IsTransportError(err) {
				s.cfg.ClusterHealth.SetDown(pi, true)
			}
		case !found:
			sp.SetOutcome("miss")
			s.metrics.AddCounter("cluster_peer_fetch_misses", 1)
		case spec.VerifyCellDoc(hash, data) != nil:
			sp.SetOutcome("invalid")
			s.metrics.AddCounter("cluster_peer_fetch_invalid", 1)
		default:
			sp.SetOutcome("hit")
			s.metrics.AddCounter("cluster_peer_fetch_hits", 1)
			sp.Finish()
			return data, true
		}
		sp.Finish()
	}
	return nil, false
}

// handleCacheFetch is GET /v1/cache/{hash}: the peering endpoint. It
// serves finished documents — completed jobs by request hash, cell
// checkpoints by cell hash — straight from the result cache; it never
// triggers simulation. Authorisation is the shared cluster key when
// the daemon is clustered (fleet-internal traffic, exempt from tenant
// rate limits), a tenant API key when only tenants are configured, and
// open otherwise.
func (s *Server) handleCacheFetch(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !hashPattern.MatchString(hash) {
		httpError(w, http.StatusBadRequest, "malformed hash")
		return
	}
	if !s.fleetAuth(w, r) {
		return
	}
	var sp otrace.Active
	if tc, ok := otrace.ParseHeader(r.Header.Get(otrace.HeaderName)); ok {
		sp = s.cfg.Tracer.Start(tc, "cache-serve")
	}
	data, ok := s.cache.get(hash)
	if !ok {
		data, ok = s.cache.getCell(hash)
	}
	if !ok {
		sp.SetOutcome("miss")
		sp.Finish()
		httpError(w, http.StatusNotFound, "no document for this hash")
		return
	}
	sp.SetOutcome("hit")
	sp.Finish()
	s.metrics.AddCounter("cluster_cache_served", 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// fleetAuth authorises the fleet-internal read endpoints (/v1/cache,
// /v1/trace, /v1/cluster/metrics): the shared cluster key when the
// daemon is clustered (exempt from tenant rate limits), a tenant API
// key when only tenants are configured, open otherwise. It writes the
// error response and reports false when the request must not proceed.
func (s *Server) fleetAuth(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.ClusterSource != nil {
		_, _, _, _, ok := s.peering()
		if !ok {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "cluster membership not loaded yet")
			return false
		}
		s.clusterMu.Lock()
		key := s.clusterKey
		s.clusterMu.Unlock()
		if key != "" && subtle.ConstantTimeCompare([]byte(r.Header.Get(cluster.KeyHeader)), []byte(key)) != 1 {
			httpError(w, http.StatusForbidden, "bad cluster key")
			return false
		}
	} else if len(s.cfg.Tenants) > 0 {
		if _, err := s.resolveTenant(apiKey(r)); err != nil {
			httpError(w, http.StatusForbidden, "%v", err)
			return false
		}
	}
	return true
}

// traceFor returns the runner trace hook for one chunk: a fresh recorder
// per cell, pid keyed to the cell's ordinal in the whole job,
// registered on the job for the trace endpoint. Nil when the daemon runs
// untraced.
func (s *Server) traceFor(j *job, jobs []runner.Job, globals []int) func(index int) *flight.Recorder {
	if s.cfg.TraceSample <= 0 {
		return nil
	}
	return func(index int) *flight.Recorder {
		rec := flight.New(flight.Options{
			Sample: s.cfg.TraceSample,
			Spans:  true,
			Pid:    globals[index],
			Label:  jobs[index].Label,
		})
		j.setRecorder(globals[index], len(j.cells), rec)
		return rec
	}
}

// buildCellDoc marshals one finished cell's document — the unit of
// durable checkpointing. These exact bytes are what the per-cell cache
// stores and what every later assembly splices.
func buildCellDoc(c spec.Cell, rs []sim.Result) ([]byte, error) {
	canon, err := c.Canonical()
	if err != nil {
		return nil, err
	}
	srs := make([]spec.SchemeResult, len(rs))
	for k, r := range rs {
		srs[k] = spec.SchemeResult{Scheme: r.Scheme, Stats: r.Stats}
	}
	resultsRaw, err := json.Marshal(srs)
	if err != nil {
		return nil, err
	}
	return json.Marshal(spec.CellDoc{SpecVersion: spec.CurrentVersion, Spec: canon, Results: resultsRaw})
}

// buildResultDoc assembles the completed-job document from the cells'
// checkpointed documents, splicing their stored bytes verbatim (the
// fields are raw JSON) — which is what makes an interrupted-and-resumed
// job's final document byte-identical to an uninterrupted run's.
func buildResultDoc(j *job) ([]byte, error) {
	reqCanon, err := j.req.Canonical()
	if err != nil {
		return nil, err
	}
	doc := spec.ResultDoc{
		ID:          j.id,
		SpecVersion: spec.CurrentVersion,
		Status:      statusDone,
		Request:     reqCanon,
		Cells:       make([]spec.CellResult, len(j.cells)),
	}
	for i, raw := range j.cellDocs {
		var cd spec.CellDoc
		if err := json.Unmarshal(raw, &cd); err != nil {
			return nil, fmt.Errorf("server: cell %d document: %w", i, err)
		}
		doc.Cells[i] = spec.CellResult{Spec: cd.Spec, Results: cd.Results}
	}
	return json.Marshal(doc)
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/engines", s.handleEngines)
	mux.HandleFunc("GET /v1/cache/{hash}", s.handleCacheFetch)
	mux.HandleFunc("GET /v1/trace/{traceid}", s.handleTraceSpans)
	mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Write(append(body, '\n'))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.Write(append(b, '\n'))
}

// apiKey extracts the request's credential: Authorization: Bearer takes
// precedence, X-API-Key is the fallback for clients that cannot set
// Authorization.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
		return strings.TrimSpace(strings.TrimPrefix(h, "Bearer "))
	}
	return r.Header.Get("X-API-Key")
}

// submit resolves a request to a job: an existing in-flight or finished
// job with the same hash, a cache hit wrapped as a finished job, or a
// freshly admitted one — journaled, charged to the tenant's quota and
// enqueued for fair-share dispatch. The error return carries an HTTP
// status.
func (s *Server) submit(req spec.Request, t *tenant, class int, tc otrace.Context) (*job, int, error) {
	hash, err := req.Hash()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[hash]; ok {
		st, _, _ := j.snapshot()
		if st != statusFailed && st != statusCanceled {
			return j, http.StatusOK, nil // singleflight: attach
		}
		// Terminal failure: fall through and resubmit fresh.
	}
	if data, ok := s.cache.get(hash); ok {
		j := completedJob(hash, data)
		s.jobs[hash] = j
		return j, http.StatusOK, nil
	}
	if s.draining {
		return nil, http.StatusServiceUnavailable, errors.New("server: draining, not accepting jobs")
	}
	if s.recovering {
		return nil, http.StatusServiceUnavailable, errors.New("server: recovering, replaying the job journal")
	}
	if !s.started {
		return nil, http.StatusServiceUnavailable, errors.New("server: not started")
	}
	if t.MaxActive > 0 && t.active >= t.MaxActive {
		return nil, http.StatusTooManyRequests, fmt.Errorf("server: tenant %q over quota (%d active jobs)", t.Name, t.active)
	}
	if s.queued >= s.cfg.QueueDepth {
		return nil, http.StatusTooManyRequests, fmt.Errorf("server: job queue full (%d)", s.cfg.QueueDepth)
	}
	cells, err := req.Cells()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	hashes, err := cellHashes(cells)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	canon, err := req.Canonical()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	j := newJob(s.baseCtx, hash, req, cells, hashes)
	s.traceJob(j, tc)
	j.tenant = t
	j.class = class
	j.cost = jobCost(len(cells), class)
	if s.cfg.NowNanos != nil {
		j.admittedNanos = s.cfg.NowNanos()
	}
	// The accept record must be durable before the client hears 202:
	// from here the daemon owes this job across any crash.
	if err := s.store.accept(hash, t.Name, class, canon, j.traceID); err != nil {
		j.cancel(err)
		return nil, http.StatusInternalServerError, fmt.Errorf("server: journaling job: %w", err)
	}
	t.active++
	s.enqueueLocked(j)
	s.jobs[hash] = j
	s.metrics.Histogram(obs.HistQueueDepth).Observe(uint64(s.queued))
	s.metrics.Histogram(obs.HistQueueDepth + "_tenant_" + t.metricName).Observe(uint64(len(t.queues[classInteractive]) + len(t.queues[classBatch])))
	s.signalLocked()
	return j, http.StatusAccepted, nil
}

// handleSubmit is POST /v1/jobs. The request is mapped to a tenant by
// its API key (403 on bad credentials when tenants are configured).
// With ?wait=1 the job is interactive class: the request holds the
// connection until the job finishes and answers with the full result
// document; disconnecting while waiting withdraws interest and cancels
// the job if nobody else is watching. Without wait the job is batch
// class, detached, and the response is an immediate status envelope.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t, err := s.resolveTenant(apiKey(r))
	if err != nil {
		httpError(w, http.StatusForbidden, "%v", err)
		return
	}
	if ok, retryAfter := s.admitRate(t); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		s.metrics.AddCounter("rate_limited", 1)
		s.metrics.AddCounter("rate_limited_tenant_"+t.metricName, 1)
		httpError(w, http.StatusTooManyRequests, "server: tenant %q over its submission rate", t.Name)
		return
	}
	var req spec.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wait := r.URL.Query().Get("wait") != ""
	class := classBatch
	if wait {
		class = classInteractive
	}
	tc, _ := otrace.ParseHeader(r.Header.Get(otrace.HeaderName))
	j, code, err := s.submit(req, t, class, tc)
	if err != nil {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, code, "%v", err)
		return
	}
	if !wait {
		j.detach()
		st, _, errMsg := j.snapshot()
		writeJSON(w, code, spec.JobStatus{ID: j.id, Status: st, Error: errMsg, Tenant: t.Name, Class: className(class)})
		return
	}
	j.hold()
	defer j.release()
	select {
	case <-j.done:
	case <-r.Context().Done():
		return // release may cancel the job if we were the last watcher
	}
	s.writeTerminal(w, j)
}

// writeTerminal answers with a finished job's stored result bytes (done)
// or its error envelope.
func (s *Server) writeTerminal(w http.ResponseWriter, j *job) {
	st, result, errMsg := j.snapshot()
	if st == statusDone {
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
		return
	}
	code := http.StatusInternalServerError
	if st == statusCanceled {
		code = http.StatusConflict
	}
	writeJSON(w, code, spec.JobStatus{ID: j.id, Status: st, Error: errMsg})
}

// lookup finds a job by id, falling back to the durable cache so results
// survive daemon restarts.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j
	}
	if data, ok := s.cache.get(id); ok {
		j := completedJob(id, data)
		s.jobs[id] = j
		return j
	}
	return nil
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	st, _, errMsg := j.snapshot()
	if j.terminal() {
		s.writeTerminal(w, j)
		return
	}
	var prog *obs.Snapshot
	if j.metrics != nil {
		snap := j.metrics.Snapshot()
		prog = &snap
	}
	status := spec.JobStatus{ID: j.id, Status: st, Error: errMsg, Progress: prog}
	if j.tenant != nil {
		status.Tenant = j.tenant.Name
		status.Class = className(j.class)
	}
	writeJSON(w, http.StatusOK, status)
}

// handleEvents is GET /v1/jobs/{id}/events: an NDJSON stream replaying
// the job's event log from the start and following it until a terminal
// event. Chunked sweeps surface partial results here as "chunk" rows.
// Streaming clients count as watchers.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	j.hold()
	defer j.release()
	next := 0
	for {
		events, wake, terminal := j.eventsFrom(next)
		for _, e := range events {
			w.Write(append(marshalEvent(e), '\n'))
		}
		next += len(events)
		if flusher != nil && len(events) > 0 {
			flusher.Flush()
		}
		if terminal && len(events) == 0 {
			return
		}
		if terminal {
			continue // drain any rows appended after the terminal check
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// handleEngines is GET /v1/engines.
func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	names := append([]string(nil), coherence.EngineNames()...)
	sort.Strings(names)
	writeJSON(w, http.StatusOK, spec.EnginesDoc{Engines: names, Filters: spec.FilterNames()})
}

// handleHealthz is GET /healthz: liveness — 200 while the process
// serves, 503 while draining. Load balancers that only need "is it up"
// read this; readiness is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is GET /readyz: readiness to accept new jobs, distinct
// from liveness. "draining" during a SIGTERM drain, "recovering" while
// the journal replay is still owed, "starting" before Start, "ok" once
// submissions would be admitted.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	state, code := "ok", http.StatusOK
	switch {
	case s.draining:
		state, code = "draining", http.StatusServiceUnavailable
	case s.recovering:
		state, code = "recovering", http.StatusServiceUnavailable
	case !s.started:
		state, code = "starting", http.StatusServiceUnavailable
	}
	s.mu.Unlock()
	if code != http.StatusOK {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"status": state})
}

// handleMetrics is GET /metrics: the server-wide obs snapshot as JSON,
// or the Prometheus text exposition with ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if err := obs.WritePrometheus(w, s.metrics.Snapshot()); err != nil {
			return // mid-stream failure: the client sees a truncated body
		}
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// handleTrace is GET /v1/jobs/{id}/trace: the job's flight trace —
// spliced with its fabric spans when the daemon runs with a tracer — as
// Chrome trace-event JSON (default, Perfetto-loadable) or NDJSON with
// ?format=ndjson. Traces exist only for jobs the daemon itself executed
// with tracing or a tracer enabled (404 otherwise) and only once the job
// is terminal — the rings are single-writer, so a running job answers
// 409.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	recs, ok := j.traceRecorders()
	if !ok {
		httpError(w, http.StatusConflict, "job still running; trace is served once the job is terminal")
		return
	}
	spans := s.spansByTrace(j.traceID)
	if len(recs) == 0 && len(spans) == 0 {
		httpError(w, http.StatusNotFound, "no trace for this job (daemon tracing off, or result restored from cache)")
		return
	}
	switch r.URL.Query().Get("format") {
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flight.WriteNDJSON(w, recs...)
		otrace.WriteNDJSON(w, spans)
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		otrace.WriteChromeTrace(w, spans, recs...)
	default:
		httpError(w, http.StatusBadRequest, "unknown trace format %q", r.URL.Query().Get("format"))
	}
}

// spansByTrace returns the daemon's recorded fabric spans under one
// trace id (nil when the daemon runs without a tracer).
func (s *Server) spansByTrace(trace string) []otrace.Span {
	if trace == "" {
		return nil
	}
	st := s.cfg.Tracer.Store()
	if st == nil {
		return nil
	}
	return st.ByTrace(trace)
}

// handleTraceSpans is GET /v1/trace/{traceid}: every fabric span this
// daemon recorded under one trace id, as NDJSON span rows (default) or a
// Chrome trace-event document with ?format=chrome. This is the fleet
// trace collection endpoint — a traced sweep asks each daemon for its
// slice of a cell's trace and merges the rows — so it is authorised like
// /v1/cache: cluster key for fleet members, tenant key otherwise.
func (s *Server) handleTraceSpans(w http.ResponseWriter, r *http.Request) {
	trace := r.PathValue("traceid")
	if trace == "" || len(trace) > 256 {
		httpError(w, http.StatusBadRequest, "malformed trace id")
		return
	}
	if !s.fleetAuth(w, r) {
		return
	}
	spans := s.spansByTrace(trace)
	if len(spans) == 0 {
		httpError(w, http.StatusNotFound, "no spans for this trace")
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		otrace.WriteNDJSON(w, spans)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		otrace.WriteChromeTrace(w, spans)
	default:
		httpError(w, http.StatusBadRequest, "unknown trace format %q", r.URL.Query().Get("format"))
	}
}

// handleClusterMetrics is GET /v1/cluster/metrics: metrics federation.
// The answering daemon snapshots itself and fetches every sibling's
// /metrics concurrently, then returns one document with a row per fleet
// member — peers that fail to answer appear with Up=false and the error,
// so a dead daemon is visible rather than silently absent. With
// ?format=prometheus the rows merge into one text exposition where every
// sample carries a peer="addr" label. On a daemon running without
// -cluster-peers the fleet is just itself.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.fleetAuth(w, r) {
		return
	}
	self := spec.PeerMetrics{Addr: s.cfg.ClusterSelfAddr, Self: true, Up: true}
	snap := s.metrics.Snapshot()
	self.Metrics = &snap
	doc := spec.ClusterMetricsDoc{Peers: []spec.PeerMetrics{self}}
	if _, mem, selfIdx, _, ok := s.peering(); ok {
		doc.Peers = make([]spec.PeerMetrics, len(mem.Peers))
		// Scrape siblings concurrently but bounded: a large membership
		// must not translate one inbound request into unbounded fan-out.
		sem := make(chan struct{}, 8)
		var wg sync.WaitGroup
		for i, p := range mem.Peers {
			if i == selfIdx {
				self.Addr = p.Addr
				doc.Peers[i] = self
				continue
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(i int, addr string) {
				defer wg.Done()
				defer func() { <-sem }()
				doc.Peers[i] = s.fetchPeerMetrics(r.Context(), addr)
			}(i, p.Addr)
		}
		wg.Wait()
		if selfIdx < 0 {
			doc.Peers = append(doc.Peers, self)
		}
	}
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		for _, p := range doc.Peers {
			if !p.Up || p.Metrics == nil {
				continue
			}
			if err := obs.WritePrometheusLabeled(w, *p.Metrics, fmt.Sprintf("peer=%q", p.Addr)); err != nil {
				return // mid-stream failure: the client sees a truncated body
			}
		}
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// fetchPeerMetrics asks one sibling for its /metrics snapshot,
// authenticated by the shared cluster key. Failures come back as a
// down row, never an error — federation tolerates dead peers.
func (s *Server) fetchPeerMetrics(ctx context.Context, addr string) spec.PeerMetrics {
	pm := spec.PeerMetrics{Addr: addr}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(addr, "/")+"/metrics", nil)
	if err != nil {
		pm.Error = err.Error()
		return pm
	}
	s.clusterMu.Lock()
	key := s.clusterKey
	s.clusterMu.Unlock()
	if key != "" {
		req.Header.Set(cluster.KeyHeader, key)
	}
	resp, err := s.cfg.ClusterHTTP.Do(req)
	if err != nil {
		pm.Error = err.Error()
		return pm
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		pm.Error = fmt.Sprintf("peer answered %d %s", resp.StatusCode, http.StatusText(resp.StatusCode))
		return pm
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		pm.Error = fmt.Sprintf("decoding peer metrics: %v", err)
		return pm
	}
	pm.Up = true
	pm.Metrics = &snap
	return pm
}

// terminal reports whether the job reached a terminal state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminalLocked()
}

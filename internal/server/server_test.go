package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dirsim/internal/coherence"
	"dirsim/internal/obs"
	"dirsim/internal/runner"
	"dirsim/internal/spec"
)

// testServer starts a daemon with test-friendly defaults behind an
// httptest server and returns both plus a shutdown func.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Executors == 0 {
		cfg.Executors = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer dcancel()
		if err := s.Drain(dctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		cancel()
	})
	return s, ts
}

// cellBody returns a small single-cell request body.
func cellBody(t *testing.T, refs int, seed int64) []byte {
	t.Helper()
	tc, err := spec.Preset("pops", refs)
	if err != nil {
		t.Fatal(err)
	}
	tc.Seed = seed
	tc.CPUs = 4
	cell := spec.Cell{
		Trace:   tc,
		Schemes: []string{"dir1nb"},
		Machine: coherence.Config{Caches: 4},
	}
	body, err := json.Marshal(spec.Request{Cell: &cell})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postWait(t *testing.T, ts *httptest.Server, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// Eight concurrent submissions of the same spec must run exactly one
// simulation and every client must receive byte-identical result bodies.
func TestConcurrentIdenticalSubmissionsSingleflight(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := cellBody(t, 20_000, 1)

	const clients = 8
	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			codes[slot], bodies[slot] = postWait(t, ts, body)
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d: response differs from client 0", i)
		}
	}
	var doc spec.ResultDoc
	if err := json.Unmarshal(bodies[0], &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != statusDone || len(doc.Cells) != 1 {
		t.Fatalf("unexpected result doc: status %q, %d cells", doc.Status, len(doc.Cells))
	}
	srs, err := doc.Cells[0].SchemeResults()
	if err != nil || len(srs) != 1 {
		t.Fatalf("scheme results: %v, %v", srs, err)
	}
	if srs[0].Scheme != "Dir1NB" || srs[0].Stats.Refs == 0 {
		t.Fatalf("unexpected scheme result: %+v", srs[0])
	}
	if got := s.Metrics().Snapshot().JobsTotal; got != 1 {
		t.Fatalf("runner executed %d jobs, want exactly 1 (singleflight)", got)
	}
}

// A repeat of a finished spec is a cache hit: served byte-identically
// without enqueueing any new runner work.
func TestCacheHitSkipsRunner(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := cellBody(t, 10_000, 2)

	code, first := postWait(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("first submit: status %d body %s", code, first)
	}
	before := s.Metrics().Snapshot().JobsTotal

	code, second := postWait(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("second submit: status %d", code)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit response differs from original")
	}
	if after := s.Metrics().Snapshot().JobsTotal; after != before {
		t.Fatalf("cache hit ran %d new runner jobs", after-before)
	}

	// The result is also retrievable by id.
	var doc spec.ResultDoc
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	byID, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(byID, first) {
		t.Fatal("GET by id differs from POST result")
	}
}

// A ?wait=1 reply is released only after the job's metrics are folded
// into the daemon's: a client reading the metrics right after each reply
// sees every job it was answered for, and the references it simulated.
func TestMetricsFoldedBeforeReply(t *testing.T) {
	s, ts := testServer(t, Config{})
	const cells = 8
	for i := 1; i <= cells; i++ {
		code, doc := postWait(t, ts, cellBody(t, 2_000, int64(100+i)))
		if code != http.StatusOK {
			t.Fatalf("cell %d: status %d body %s", i, code, doc)
		}
		snap := s.Metrics().Snapshot()
		if snap.JobsDone != uint64(i) {
			t.Fatalf("after reply %d: jobs done = %d, want %d", i, snap.JobsDone, i)
		}
		if snap.Refs == 0 {
			t.Fatalf("after reply %d: no simulated references in the metrics", i)
		}
	}
}

// Results persist to the cache dir and survive a daemon restart: a new
// server over the same dir serves the identical bytes without running.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := cellBody(t, 10_000, 3)

	_, ts1 := testServer(t, Config{CacheDir: dir})
	code, first := postWait(t, ts1, body)
	if code != http.StatusOK {
		t.Fatalf("status %d body %s", code, first)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir files = %v, err %v", files, err)
	}
	onDisk, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, first) {
		t.Fatal("on-disk artifact differs from served response")
	}

	s2, ts2 := testServer(t, Config{CacheDir: dir})
	code, again := postWait(t, ts2, body)
	if code != http.StatusOK {
		t.Fatalf("restarted daemon: status %d", code)
	}
	if !bytes.Equal(again, first) {
		t.Fatal("restarted daemon served different bytes")
	}
	if got := s2.Metrics().Snapshot().JobsTotal; got != 0 {
		t.Fatalf("restarted daemon ran %d jobs, want 0", got)
	}
}

// An async submission returns 202 immediately and the job runs to
// completion detached; polling converges on done.
func TestAsyncSubmitAndPoll(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := cellBody(t, 10_000, 4)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d body %s", resp.StatusCode, data)
	}
	var st spec.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != statusQueued && st.Status != statusRunning {
		t.Fatalf("async status %q", st.Status)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var doc spec.ResultDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Status == statusDone {
			break
		}
		if doc.Status == statusFailed || doc.Status == statusCanceled {
			t.Fatalf("job ended %q: %s", doc.Status, data)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", doc.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The events stream replays status events and ends after the terminal
// event.
func TestEventStream(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := cellBody(t, 10_000, 5)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st spec.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var types []string
	sc := bufio.NewScanner(stream.Body)
	lastSeq := -1
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if e.Seq != lastSeq+1 {
			t.Fatalf("event seq %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		types = append(types, e.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(types, ",")
	if !strings.Contains(joined, "status") || !strings.HasSuffix(joined, "done") {
		t.Fatalf("event sequence %v", types)
	}
}

// When every watching client disconnects from a waited (never detached)
// job, the job's context is cancelled and the job ends canceled.
func TestClientDisconnectCancelsJob(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, Executors: 1})
	// Big enough that the client can disconnect mid-run.
	body := cellBody(t, 50_000_000, 6)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Find the job and wait until it is running, then disconnect.
	hash := specHash(t, body)
	var j *job
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		j = s.jobs[hash]
		s.mu.Unlock()
		if j != nil {
			if st, _, _ := j.snapshot(); st == statusRunning {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-errc

	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatal("job not cancelled after client disconnect")
	}
	st, _, errMsg := j.snapshot()
	if st != statusCanceled {
		t.Fatalf("job status %q (%s), want canceled", st, errMsg)
	}
	if !strings.Contains(errMsg, errClientGone.Error()) {
		t.Fatalf("cancel cause %q, want client-gone", errMsg)
	}
}

func specHash(t *testing.T, body []byte) string {
	t.Helper()
	var req spec.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	hash, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// Drain refuses new submissions with 503 but completes in-flight jobs,
// with their results durably on disk before Drain returns.
func TestDrainFinishesInFlight(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 2, Executors: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := cellBody(t, 200_000, 7)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	// Intake is closed...
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(cellBody(t, 1_000, 8)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz %d, want 503", resp.StatusCode)
	}

	// ...and the in-flight job's result is durable on disk.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("post-drain cache dir has %d artifacts, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc spec.ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("torn artifact: %v", err)
	}
	if doc.Status != statusDone {
		t.Fatalf("artifact status %q", doc.Status)
	}
}

// A full queue answers 429 with Retry-After rather than accepting
// unbounded work.
func TestQueueFull(t *testing.T) {
	s, err := New(Config{Workers: 1, Executors: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately not started: nothing consumes the queue, so the
	// second distinct submission must overflow deterministically.
	s.mu.Lock()
	s.started = true
	s.baseCtx = context.Background()
	s.mu.Unlock()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(seed int64) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(cellBody(t, 1_000, seed)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := submit(10); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit %d", resp.StatusCode)
	}
	resp := submit(11)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// Malformed and invalid submissions are 400s with JSON error bodies.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []string{
		`{not json`,
		`{}`,                     // neither cell nor sweep
		`{"cell":{},"sweep":{}}`, // both
		`{"unknown_field":1}`,    // unknown key
		`{"cell":{"schemes":["nosuch"],"trace":{"workload":"pops","cpus":4,"refs":100,"seed":1},"machine":{"caches":4}}}`, // bad scheme
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, data)
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Errorf("body %q: error envelope %q", body, data)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// The discovery and health endpoints answer sensibly.
func TestDiscoveryEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{Metrics: obs.NewMetrics()})

	resp, err := http.Get(ts.URL + "/v1/engines")
	if err != nil {
		t.Fatal(err)
	}
	var engines spec.EnginesDoc
	if err := json.NewDecoder(resp.Body).Decode(&engines); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, e := range engines.Engines {
		if e == "dir1nb" {
			found = true
		}
	}
	if !found || len(engines.Filters) == 0 {
		t.Fatalf("engines doc %+v", engines)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// A sweep request expands to cells and the result doc carries one cell
// entry per (workload, cpus, seed) in grid order.
func TestSweepRequest(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4})
	req := spec.Request{Sweep: &spec.Sweep{
		Workloads: []string{"pops"},
		Schemes:   []string{"dir0b", "dir1nb"},
		CPUs:      []int{2, 4},
		Refs:      5_000,
		Seeds:     2,
	}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, data := postWait(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("status %d body %s", code, data)
	}
	var doc spec.ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 4 { // 1 workload × 2 cpus × 2 seeds
		t.Fatalf("%d cells, want 4", len(doc.Cells))
	}
	for i, c := range doc.Cells {
		srs, err := c.SchemeResults()
		if err != nil || len(srs) != 2 {
			t.Fatalf("cell %d: %d scheme results (%v)", i, len(srs), err)
		}
	}
}

// JobTimeout is the daemon's one bound on a cell's wall time: a cell
// that overruns it fails the job with ErrJobDeadline's message, and no
// document for the cell is cached, so a later submit simulates afresh.
func TestJobTimeoutFailsCell(t *testing.T) {
	s, ts := testServer(t, Config{JobTimeout: time.Nanosecond, CacheDir: t.TempDir()})
	body := cellBody(t, 50_000, 3) // many reference chunks, each a deadline check
	code, data := postWait(t, ts, body)
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d body %s, want 500", code, data)
	}
	var st spec.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != statusFailed || !strings.Contains(st.Error, runner.ErrJobDeadline.Error()) {
		t.Fatalf("job = %+v, want failed with %q", st, runner.ErrJobDeadline)
	}
	var req spec.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	hash, err := req.Cell.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.getCell(hash); ok {
		t.Error("a cell that overran its deadline was cached")
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("%d cache entries after a failed job, want 0", n)
	}
}

// The in-memory LRU evicts beyond capacity and put rejects nothing.
func TestResultCacheLRU(t *testing.T) {
	c, err := newResultCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.put(fmt.Sprintf("%064d", i), []byte{byte(i)}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
	if _, ok := c.get(fmt.Sprintf("%064d", 0)); ok {
		t.Fatal("oldest entry not evicted")
	}
	if data, ok := c.get(fmt.Sprintf("%064d", 2)); !ok || data[0] != 2 {
		t.Fatal("newest entry missing")
	}
	// Hostile keys never touch the filesystem.
	dir := t.TempDir()
	d, err := newResultCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.put("../../escape", []byte("x"), ""); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 0 {
		t.Fatalf("non-hash key wrote files: %v", files)
	}
}

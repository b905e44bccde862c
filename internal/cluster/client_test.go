package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dirsim/internal/coherence"
	"dirsim/internal/obs"
	"dirsim/internal/otrace"
	"dirsim/internal/remote"
	"dirsim/internal/spec"
	"dirsim/internal/tracegen"
)

// testCell builds a small distinct cell per variant (distinct content
// hash, so distinct routing).
func testCell(t *testing.T, refs int) spec.Cell {
	t.Helper()
	tc := tracegen.POPS(refs)
	tc.CPUs = 2
	return spec.Cell{Trace: tc, Schemes: []string{"dir0b"}, Machine: coherence.Config{Caches: 2}}
}

// doneDoc fabricates a done document stamped with the serving peer.
func doneDoc(t *testing.T, servedBy string) []byte {
	t.Helper()
	doc := spec.ResultDoc{ID: servedBy, SpecVersion: spec.CurrentVersion, Status: "done"}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Without a hedge timer the owner alone serves the cell: exactly one
// request, to the first peer in HRW order.
func TestRunCellGoesToOwnerOnly(t *testing.T) {
	var calls [2]atomic.Int64
	var servers [2]*httptest.Server
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls[i].Add(1)
			w.Write(doneDoc(t, servers[i].URL))
		}))
		defer servers[i].Close()
	}
	m := Membership{Peers: []Peer{{Addr: servers[0].URL}, {Addr: servers[1].URL}}}
	c := &Client{Membership: m, Router: NewRouter(m, nil)}

	cell := testCell(t, 2_000)
	hash, err := cell.Hash()
	if err != nil {
		t.Fatal(err)
	}
	owner := c.Router.Order(hash)[0]

	doc, err := c.RunCell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != servers[owner].URL {
		t.Errorf("served by %s, want the owner %s", doc.ID, servers[owner].URL)
	}
	if total := calls[0].Load() + calls[1].Load(); total != 1 {
		t.Errorf("fleet saw %d requests, want 1 (no hedge configured)", total)
	}
	if calls[1-owner].Load() != 0 {
		t.Error("non-owner peer was contacted without a hedge or failure")
	}
}

// A fired hedge launches the next peer in HRW order concurrently; the
// first success wins and the slow primary attempt is canceled.
func TestRunCellHedgesToNextPeer(t *testing.T) {
	cell := testCell(t, 2_100)
	hash, err := cell.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// mode[i] is set once the HRW order is known: the owner stalls until
	// its request context dies, the sibling answers immediately.
	var mode [2]atomic.Value
	var canceled [2]atomic.Int64
	// primaryIn closes once the owner holds the primary request; the
	// owner gets exactly one request, so it is closed once.
	primaryIn := make(chan time.Time)
	var servers [2]*httptest.Server
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if mode[i].Load() == "slow" {
				// Drain the body first: an HTTP/1.1 server only watches
				// for client disconnect once the request is consumed.
				io.Copy(io.Discard, r.Body)
				close(primaryIn)
				<-r.Context().Done()
				canceled[i].Add(1)
				return
			}
			w.Write(doneDoc(t, servers[i].URL))
		}))
		defer servers[i].Close()
	}
	m := Membership{Peers: []Peer{{Addr: servers[0].URL}, {Addr: servers[1].URL}}}
	router := NewRouter(m, nil)
	order := router.Order(hash)
	mode[order[0]].Store("slow")
	mode[order[1]].Store("fast")

	// The hedge timer fires once the owner holds the primary request —
	// the deterministic stand-in for time.After. Firing any earlier
	// could let the sibling win before the primary reaches the owner,
	// leaving no in-flight request to cancel.
	c := &Client{
		Membership: m,
		Router:     router,
		HedgeDelay: time.Millisecond,
		After:      func(time.Duration) <-chan time.Time { return primaryIn },
	}
	doc, err := c.RunCell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != servers[order[1]].URL {
		t.Errorf("served by %s, want the hedged sibling %s", doc.ID, servers[order[1]].URL)
	}
	// RunCell's deferred cancel kills the loser; the handler observes it.
	deadline := time.Now().Add(5 * time.Second)
	for canceled[order[0]].Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if canceled[order[0]].Load() == 0 {
		t.Error("losing attempt was never canceled")
	}
}

// A dead owner fails over to the next peer in HRW order, and the
// transport error marks the owner down for subsequent cells.
func TestRunCellFailsOverFromDeadOwner(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(doneDoc(t, "live"))
	}))
	defer live.Close()

	// A bound-then-closed listener: connecting fails fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := "http://" + ln.Addr().String()
	ln.Close()

	m := Membership{Peers: []Peer{{Addr: deadAddr}, {Addr: live.URL}}}
	h := NewHealth()
	c := &Client{Membership: m, Router: NewRouter(m, h), Health: h}

	// Find a cell whose owner is the dead peer, so failover (not plain
	// owner routing) is what serves it.
	for refs := 2_000; ; refs++ {
		cell := testCell(t, refs)
		hash, err := cell.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if c.Router.Order(hash)[0] != 0 {
			continue
		}
		doc, err := c.RunCell(context.Background(), cell)
		if err != nil {
			t.Fatal(err)
		}
		if doc.ID != "live" {
			t.Errorf("served by %q, want the live peer", doc.ID)
		}
		break
	}
	if !h.Down(0) {
		t.Error("transport failure did not mark the dead peer down")
	}
}

// When every peer fails, the error names the cell and wraps each
// peer's failure.
func TestRunCellAllPeersFail(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer bad.Close()
	m := Membership{Peers: []Peer{{Addr: bad.URL}}}
	c := &Client{Membership: m, Router: NewRouter(m, nil)}
	_, err := c.RunCell(context.Background(), testCell(t, 2_000))
	if err == nil {
		t.Fatal("all-peers failure did not surface")
	}
	if !strings.Contains(err.Error(), "failed on all peers") {
		t.Errorf("error %q does not say the fleet was exhausted", err)
	}
}

// A saturated daemon's Retry-After floors the backoff through the
// cluster client exactly as it does through a direct remote client.
func TestRetryAfterPropagatesThroughCluster(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.Write(doneDoc(t, "ok"))
	}))
	defer ts.Close()
	m := Membership{Peers: []Peer{{Addr: ts.URL}}}
	var slept []time.Duration
	c := &Client{
		Membership: m,
		Router:     NewRouter(m, nil),
		Retry:      remote.RetryPolicy{Max: 3, Base: time.Millisecond, Seed: 1},
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	if _, err := c.RunCell(context.Background(), testCell(t, 2_000)); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1", len(slept))
	}
	if slept[0] < 3*time.Second {
		t.Errorf("backoff %v ignored the Retry-After: 3 floor", slept[0])
	}
}

// RunCells calls onDone exactly once per cell and never concurrently,
// whatever the worker count.
func TestRunCellsExactlyOnceSerialized(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(doneDoc(t, "ok"))
	}))
	defer ts.Close()
	m := Membership{Peers: []Peer{{Addr: ts.URL}}}
	c := &Client{Membership: m, Router: NewRouter(m, nil)}

	cells := make([]spec.Cell, 8)
	for i := range cells {
		cells[i] = testCell(t, 2_000+i)
	}
	counts := make([]int, len(cells))
	inCallback := 0 // mutated without atomics: the race detector and the
	// depth check both fail if onDone ever overlaps itself
	err := c.RunCells(context.Background(), cells, 4, func(i int, doc *spec.ResultDoc, err error) {
		inCallback++
		if inCallback != 1 {
			t.Errorf("onDone reentered (depth %d)", inCallback)
		}
		if err != nil {
			t.Errorf("cell %d: %v", i, err)
		}
		counts[i]++
		inCallback--
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range counts {
		if n != 1 {
			t.Errorf("cell %d: onDone ran %d times, want 1", i, n)
		}
	}
}

// The first cell failure cancels the rest and is the returned error.
func TestRunCellsFirstErrorWins(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"bad"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	m := Membership{Peers: []Peer{{Addr: ts.URL}}}
	c := &Client{Membership: m, Router: NewRouter(m, nil)}
	cells := []spec.Cell{testCell(t, 2_000), testCell(t, 2_001), testCell(t, 2_002)}
	err := c.RunCells(context.Background(), cells, 2, nil)
	if err == nil {
		t.Fatal("failing fleet produced no error")
	}
	if !strings.Contains(err.Error(), "cluster: cell") {
		t.Errorf("error %q does not name the failing cell", err)
	}
}

// CacheClient.Fetch: 200 is a hit carrying the body, 404 a clean miss,
// anything else an error; the cluster key travels as a header.
func TestCacheClientFetch(t *testing.T) {
	var gotKey atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotKey.Store(r.Header.Get(KeyHeader))
		switch {
		case strings.HasSuffix(r.URL.Path, "/hit"):
			w.Write([]byte("doc-bytes"))
		case strings.HasSuffix(r.URL.Path, "/miss"):
			http.NotFound(w, r)
		default:
			http.Error(w, "nope", http.StatusForbidden)
		}
	}))
	defer ts.Close()

	cc := &CacheClient{HTTP: &http.Client{Timeout: time.Second}, Key: "s3cret"}
	ctx := context.Background()

	data, found, err := cc.Fetch(ctx, ts.URL, "hit")
	if err != nil || !found || string(data) != "doc-bytes" {
		t.Errorf("hit: data=%q found=%v err=%v", data, found, err)
	}
	if gotKey.Load() != "s3cret" {
		t.Errorf("cluster key header = %q", gotKey.Load())
	}
	if _, found, err := cc.Fetch(ctx, ts.URL, "miss"); err != nil || found {
		t.Errorf("miss: found=%v err=%v", found, err)
	}
	if _, _, err := cc.Fetch(ctx, ts.URL, "forbidden"); err == nil {
		t.Error("non-404 error status did not surface as an error")
	}
}

// A hedged request under a tracer yields a complete span tree: the root
// "cell" span (trace id = cell hash), a canceled primary attempt, a
// winning hedge attempt — every parent link resolving, no orphans — and
// the hedge counters account for the outcome. The trace context must
// also reach the daemons as an X-Dirsim-Trace header.
func TestRunCellHedgeSpanTree(t *testing.T) {
	cell := testCell(t, 2_200)
	hash, err := cell.Hash()
	if err != nil {
		t.Fatal(err)
	}

	var mode [2]atomic.Value
	var gotTrace atomic.Value
	var servers [2]*httptest.Server
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := r.Header.Get(otrace.HeaderName); h != "" {
				gotTrace.Store(h)
			}
			if mode[i].Load() == "slow" {
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				return
			}
			w.Write(doneDoc(t, servers[i].URL))
		}))
		defer servers[i].Close()
	}
	m := Membership{Peers: []Peer{{Addr: servers[0].URL}, {Addr: servers[1].URL}}}
	router := NewRouter(m, nil)
	order := router.Order(hash)
	mode[order[0]].Store("slow")
	mode[order[1]].Store("fast")

	fired := make(chan time.Time)
	close(fired)
	metrics := obs.NewMetrics()
	store := otrace.NewStore(64)
	c := &Client{
		Membership: m,
		Router:     router,
		HedgeDelay: time.Millisecond,
		After:      func(time.Duration) <-chan time.Time { return fired },
		Tracer:     otrace.New("sweep", nil, store, metrics),
		Metrics:    metrics,
	}
	if _, err := c.RunCell(context.Background(), cell); err != nil {
		t.Fatal(err)
	}

	// The loser's span lands asynchronously after its context dies.
	deadline := time.Now().Add(5 * time.Second)
	var spans []otrace.Span
	for time.Now().Before(deadline) {
		spans = store.ByTrace(hash)
		if len(spans) >= 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}

	byName := map[string]otrace.Span{}
	ids := map[string]bool{}
	for _, s := range spans {
		byName[s.Name] = s
		ids[s.ID()] = true
		if s.Trace != hash {
			t.Errorf("span %s trace = %q, want cell hash %q", s.Name, s.Trace, hash)
		}
	}
	root, ok := byName["cell"]
	if !ok || root.Parent != "" || root.Outcome != "hedge" {
		t.Fatalf("root cell span = %+v, want parentless with outcome hedge", root)
	}
	prim := byName["attempt-primary"]
	if prim.Outcome != "canceled" || prim.Peer != servers[order[0]].URL {
		t.Errorf("primary attempt = %+v, want canceled on owner", prim)
	}
	hedge := byName["attempt-hedge"]
	if hedge.Outcome != "win" || hedge.Peer != servers[order[1]].URL {
		t.Errorf("hedge attempt = %+v, want win on sibling", hedge)
	}
	for _, s := range spans {
		if s.Parent != "" && !ids[s.Parent] {
			t.Errorf("orphan span %s: parent %q not in trace", s.Name, s.Parent)
		}
	}

	if got, _ := gotTrace.Load().(string); got == "" || !strings.HasPrefix(got, hash+";") {
		t.Errorf("daemon saw trace header %q, want %q;<span>", got, hash)
	}
	for counter, want := range map[string]uint64{
		"cluster_hedge_fired":      1,
		"cluster_hedge_win":        1,
		"cluster_attempt_canceled": 1,
		"cluster_failover":         0,
	} {
		if got := metrics.CounterValue(counter); got != want {
			t.Errorf("%s = %d, want %d", counter, got, want)
		}
	}
}

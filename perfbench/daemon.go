package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dirsim/internal/otrace"
	"dirsim/internal/server"
)

// daemon is one in-process dirsimd: the server, its HTTP front end on a
// loopback listener, and its span store when traced.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	store  *otrace.Store
	cancel context.CancelFunc
	served chan error
}

// listen opens a loopback listener on an ephemeral port.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// nowNanos is the wall clock the daemons and tracers are given.
func nowNanos() int64 { return time.Now().UnixNano() }

// daemonSpans is each daemon's span ring: far more than a traced run
// records, so the ring never wraps and no span's parent is lost.
const daemonSpans = 1 << 16

// startDaemon builds a server from cfg, starts it and serves it on ln.
// When traced, the daemon records its fabric spans into its own store
// under the service name dirsimd:<addr>, as cmd/dirsimd does.
func startDaemon(ln net.Listener, cfg server.Config, traced bool) (*daemon, error) {
	cfg.NowNanos = nowNanos
	d := &daemon{url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	if traced {
		d.store = otrace.NewStore(daemonSpans)
		cfg.Tracer = otrace.New("dirsimd:"+ln.Addr().String(), nowNanos, d.store, nil)
	}
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	d.srv, d.cancel = srv, cancel
	d.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon (every accepted job finishes and is written),
// closes its listener and waits for the serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer d.cancel()
	drainErr := d.srv.Drain(ctx)
	shutErr := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("daemon %s: serve: %v", d.url, err)
	}
	return errors.Join(drainErr, shutErr)
}

// startRepeatedly starts n instances one after another, timing each
// start into setup and stopping every instance but the last, which it
// returns. The previous instance's garbage is collected before each
// timed start, as replay's set-up does, so no start pays for another's
// collection.
func startRepeatedly[T interface{ stop() error }](n int, setup *[]time.Duration, start func() (T, error)) (T, error) {
	var last T
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := last.stop(); err != nil {
				return last, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		inst, err := start()
		if err != nil {
			return inst, err
		}
		*setup = append(*setup, time.Since(t0))
		last = inst
	}
	return last, nil
}

// stopAll stops every daemon, joining their errors.
func stopAll(ds []*daemon) error {
	var errs []error
	for _, d := range ds {
		if d != nil {
			errs = append(errs, d.stop())
		}
	}
	return errors.Join(errs...)
}

// newHTTPClient is the benchmark's one client transport: at most conns
// connections to any daemon, and a deadline far above any request.
func newHTTPClient(conns int, rt func(http.RoundTripper) http.RoundTripper) *http.Client {
	var base http.RoundTripper = &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     30 * time.Second,
	}
	if rt != nil {
		base = rt(base)
	}
	return &http.Client{Transport: base, Timeout: 120 * time.Second}
}

// timedTransport times every job submission from the request leaving to
// its response body being closed, and files the sample under the phase
// current when the request was sent. It exists because cluster.Client
// runs cells inside its own worker pool, so the benchmark can only time
// each cell's HTTP exchange, not the call.
type timedTransport struct {
	base  http.RoundTripper
	mu    sync.Mutex
	phase int
	lat   map[int]*latencies
}

func (t *timedTransport) setPhase(p int) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

func (t *timedTransport) record(phase int, d time.Duration, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.lat[phase]
	if l == nil {
		l = &latencies{}
		t.lat[phase] = l
	}
	if ok {
		l.add(d)
	} else {
		l.failed++
	}
}

// take returns and clears the samples of one phase.
func (t *timedTransport) take(phase int) latencies {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.lat[phase]
	delete(t.lat, phase)
	if l == nil {
		return latencies{}
	}
	return *l
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return t.base.RoundTrip(req)
	}
	t.mu.Lock()
	phase := t.phase
	t.mu.Unlock()
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		// A hedge loser cancelled by the cluster client is not a failed
		// request: another attempt answered the cell.
		if req.Context().Err() == nil {
			t.record(phase, 0, false)
		}
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.record(phase, time.Since(t0), resp.StatusCode == http.StatusOK)
	}}
	return resp, nil
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

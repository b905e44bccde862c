// Command dirsimd serves simulations as a daemon: a stdlib-only HTTP
// service that accepts cell and sweep specs as jobs, executes them on the
// shared runner pool (panics contained, an optional per-cell deadline),
// deduplicates concurrent identical submissions by content hash, and
// answers repeats from a content-addressed result cache (in-memory LRU
// plus an optional crash-safe on-disk store).
//
// With -state-dir the daemon is crash-survivable: accepted jobs are
// journaled before the submit is acknowledged, sweeps checkpoint per
// cell, and a daemon restarted after kill -9 replays the journal,
// re-simulates only the missing cells, and reassembles results
// byte-identical to an uninterrupted run. With -tenants the daemon is
// multi-tenant: API keys map to tenants with quotas and weights, queued
// work drains by weighted fair share, and interactive ?wait=1 requests
// are dispatched ahead of batch sweeps.
//
// Endpoints (see API.md for the full reference):
//
//	POST /v1/jobs            submit a spec; ?wait=1 blocks for the result
//	GET  /v1/jobs/{id}       job status, or the result document when done
//	GET  /v1/jobs/{id}/events  NDJSON stream of status/progress/chunk events
//	GET  /v1/jobs/{id}/trace  a terminal job's flight trace (with -trace-sample)
//	GET  /v1/engines         engine and trace-filter registries
//	GET  /v1/trace/{traceid}  this daemon's fabric spans for one trace id (NDJSON)
//	GET  /v1/cluster/metrics  federated fleet metrics, one row per member
//	GET  /healthz            liveness (503 while draining)
//	GET  /readyz             readiness (starting/recovering/draining vs ok)
//	GET  /metrics            server-wide obs counters as JSON (?format=prometheus for text exposition)
//
// SIGINT/SIGTERM trigger a graceful drain: intake stops (503), in-flight
// jobs run to completion with their results durably written via
// internal/atomicio, then the process exits 0. A drain that exceeds
// -drain-timeout exits 1 instead.
//
// Usage:
//
//	dirsimd -addr 127.0.0.1:8023 -parallel 4 -state-dir /var/tmp/dirsim
//	dirsimd -addr 127.0.0.1:8023 -tenants tenants.json   # API-key admission
//	dirsimd -addr 127.0.0.1:0 -ready-file dirsimd.addr   # test harnesses
//	dirsimd -addr 127.0.0.1:8023 -cluster-peers peers.json  # fleet member
//
// With -cluster-peers the daemon joins a static fleet: before simulating
// a cell it asks the cell's rendezvous-hash owner (then one sibling) for
// an already-finished document over GET /v1/cache/{hash}, authenticated
// by the membership's shared key, and it serves the same endpoint to its
// peers. A background prober marks unreachable peers down so fetches
// skip them. The peers file may appear after startup (test harnesses
// compose it from ready files); peering stays off until it loads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"dirsim/internal/atomicio"
	"dirsim/internal/cluster"
	"dirsim/internal/obs"
	"dirsim/internal/otrace"
	"dirsim/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dirsimd: ")
	addr := flag.String("addr", "127.0.0.1:8023", "listen address (port 0 picks a free port)")
	readyFile := flag.String("ready-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	parallel := flag.Int("parallel", 4, "concurrent cell simulations per job")
	executors := flag.Int("executors", 2, "concurrently running jobs")
	queue := flag.Int("queue", 16, "accepted-but-unfinished job bound beyond the executors (full queue answers 429)")
	cacheDir := flag.String("cache-dir", "", "persist results as <hash>.json under this directory (empty = memory only, or <state-dir>/results with -state-dir)")
	cacheEntries := flag.Int("cache-entries", 128, "in-memory result cache capacity")
	stateDir := flag.String("state-dir", "", "journal accepted jobs under this directory; a restarted daemon resumes exactly the unfinished work (empty = stateless)")
	tenantsFile := flag.String("tenants", "", "JSON file of API tenants ([{name,key,weight,max_active}]); empty = open mode, no authentication")
	chunkCells := flag.Int("chunk-cells", 16, "sweep cells per execution chunk (the checkpoint and yield granularity)")
	jobTimeout := flag.Duration("job-timeout", 0, "deadline for each cell (0 = no limit)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Minute, "bound on graceful shutdown")
	traceSample := flag.Int("trace-sample", 0, "record a flight trace per executed job, sampling every Nth reference (0 = off); serve via GET /v1/jobs/{id}/trace")
	traceSpans := flag.Int("trace-spans", 0, "fabric span ring capacity (0 = default 16384); serve via GET /v1/trace/{traceid}")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this extra listener (empty = off); keep it private")
	clusterPeers := flag.String("cluster-peers", "", "JSON membership file ({key, peers:[{addr,weight}]}); join the fleet it describes (empty = standalone)")
	clusterProbe := flag.Duration("cluster-probe", 5*time.Second, "interval between peer /readyz health probes in cluster mode")
	flag.Parse()

	tenants, err := loadTenants(*tenantsFile)
	if err != nil {
		log.Fatal(err)
	}

	// Listen before building the server: cluster mode needs the bound
	// address (port 0 resolves here) to find itself in the membership.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	var (
		clusterSrc    *cluster.Source
		clusterHealth *cluster.Health
	)
	if *clusterPeers != "" {
		clusterSrc = cluster.FileSource(*clusterPeers)
		clusterHealth = cluster.NewHealth()
	}

	// The tracer is always on: span recording is allocation-free and the
	// store is a fixed ring, so the daemon's fabric is observable by
	// default. The service name is the bound address — the identity peers
	// see — so a merged fleet trace attributes every span to its daemon.
	metrics := obs.NewMetrics()
	nowNanos := func() int64 { return time.Now().UnixNano() }
	tracer := otrace.New("dirsimd:"+ln.Addr().String(), nowNanos, otrace.NewStore(*traceSpans), metrics)

	s, err := server.New(server.Config{
		Workers:      *parallel,
		Executors:    *executors,
		QueueDepth:   *queue,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		StateDir:     *stateDir,
		Tenants:      tenants,
		ChunkCells:   *chunkCells,
		JobTimeout:   *jobTimeout,
		NowNanos:     nowNanos,
		Metrics:      metrics,
		Tracer:       tracer,
		TraceSample:  *traceSample,

		ClusterSource:   clusterSrc,
		ClusterSelfAddr: ln.Addr().String(),
		ClusterHealth:   clusterHealth,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s", ln.Addr())
	if *readyFile != "" {
		if err := atomicio.WriteFile(*readyFile, []byte(ln.Addr().String()+"\n")); err != nil {
			log.Fatal(err)
		}
	}

	if *debugAddr != "" {
		// The pprof listener is separate from the API listener so the
		// profiling surface is never exposed on the service address.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", dln.Addr())
		debugSrv := &http.Server{
			Handler:           http.DefaultServeMux, // net/http/pprof registers here
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	// The base context is deliberately background: a signal must drain,
	// not cancel — in-flight jobs finish and land durably in the cache.
	s.Start(context.Background())

	probeCtx, probeCancel := context.WithCancel(context.Background())
	defer probeCancel()
	if clusterSrc != nil {
		prober := &cluster.Prober{
			Source:   clusterSrc,
			Health:   clusterHealth,
			SelfAddr: ln.Addr().String(),
			HTTP:     &http.Client{Timeout: 2 * time.Second},
			Interval: *clusterProbe,
			// ctx-aware sleep: a drain interrupts the wait instead of
			// finishing out a full probe interval.
			Sleep: func(d time.Duration) {
				t := time.NewTimer(d)
				defer t.Stop()
				select {
				case <-t.C:
				case <-probeCtx.Done():
				}
			},
			FailAfter: 2,
		}
		go prober.Run(probeCtx)
	}
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		log.Printf("%s: draining (in-flight jobs will finish)", sig)
	case err := <-serveErr:
		log.Fatal(err)
	}

	probeCancel()
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		log.Fatal(err)
	}
	// Every accepted job is finished and durable; now flush the waiting
	// clients' responses and close the listener.
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Fatal(err)
	}
	log.Print("drained cleanly")
}

// loadTenants reads the -tenants file: a JSON array of tenant objects.
// An empty path means open mode (no authentication).
func loadTenants(path string) ([]server.Tenant, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants file: %w", err)
	}
	var tenants []server.Tenant
	if err := json.Unmarshal(data, &tenants); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	return tenants, nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"dirsim/internal/cluster"
	"dirsim/internal/obs"
	"dirsim/internal/otrace"
	"dirsim/internal/remote"
	"dirsim/internal/server"
	"dirsim/internal/spec"
)

const (
	fleetSize = 3
	// fleetKey is the membership's shared cluster key; peer cache
	// fetches must present it.
	fleetKey = "perfbench-fleet-key"
	// fleetHedge is cmd/sweep's default -hedge. Cells finish far inside
	// it, so in practice no hedge fires and each cell is simulated
	// exactly once, by its owner.
	fleetHedge = 2 * time.Second
	// fleetCacheEntries keeps every cell document of a run in each
	// daemon's memory tier, so phase 2 always finds phase 1's documents.
	fleetCacheEntries = 1 << 14
	// fleetRSSRounds is the point of the schedule at which fleet reads
	// max_rss_mb: when this many rounds have completed. The daemons keep
	// every round's jobs and documents, so memory grows with the rounds
	// run; read at a fixed round, the figure does not rise with
	// throughput. The run lasts at least this many rounds.
	fleetRSSRounds = 24
)

// fleet is three daemons sharing one static membership.
type fleet struct {
	daemons []*daemon
	mem     cluster.Membership
}

// startFleet binds three listeners, writes the membership from their
// addresses, and starts a clustered daemon on each.
func startFleet(traced bool) (*fleet, error) {
	lns := make([]net.Listener, fleetSize)
	f := &fleet{mem: cluster.Membership{Key: fleetKey}}
	for i := range lns {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		f.mem.Peers = append(f.mem.Peers, cluster.Peer{Addr: "http://" + ln.Addr().String()})
	}
	src := cluster.StaticSource(f.mem)
	for i, ln := range lns {
		d, err := startDaemon(ln, server.Config{
			Workers:         1,
			Executors:       2,
			QueueDepth:      64,
			CacheEntries:    fleetCacheEntries,
			ClusterSource:   src,
			ClusterSelfAddr: ln.Addr().String(),
			ClusterHTTP:     &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
			ClusterHealth:   cluster.NewHealth(),
		}, traced)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			return nil, errors.Join(err, stopAll(f.daemons))
		}
		f.daemons = append(f.daemons, d)
	}
	return f, nil
}

func (f *fleet) stop() error { return stopAll(f.daemons) }

// fleetSetup is what fleet sets up before its timed phase: the daemons,
// and round 0's cells with their content hashes.
type fleetSetup struct {
	f     *fleet
	cells []spec.Cell
	items []*cellItem
}

func (s fleetSetup) stop() error { return s.f.stop() }

func setUpFleet(e *env) (fleetSetup, error) {
	f, err := startFleet(e.traced)
	if err != nil {
		return fleetSetup{}, err
	}
	cells, items, err := fleetRound(e.seed, 0)
	if err != nil {
		return fleetSetup{}, errors.Join(err, f.stop())
	}
	return fleetSetup{f: f, cells: cells, items: items}, nil
}

// fleetRound returns round r's grid and a request item for each cell.
func fleetRound(seed int64, round int) ([]spec.Cell, []*cellItem, error) {
	cells, err := fleetGrid(seed, round)
	if err != nil {
		return nil, nil, err
	}
	items := make([]*cellItem, len(cells))
	for i, c := range cells {
		if items[i], err = newCellItem(c); err != nil {
			return nil, nil, err
		}
	}
	return cells, items, nil
}

// jobsTotal is the fleet-wide count of simulated cells.
func (f *fleet) jobsTotal() uint64 {
	var n uint64
	for _, d := range f.daemons {
		n += d.srv.Metrics().Snapshot().JobsTotal
	}
	return n
}

// counter sums a named counter over the fleet.
func (f *fleet) counter(name string) uint64 {
	var n uint64
	for _, d := range f.daemons {
		n += d.srv.Metrics().CounterValue(name)
	}
	return n
}

// runFleet is the fleet workload: rounds of a seeded grid, each run once
// through the cluster client (phase 1: every cell simulated by its owner)
// and once more through each non-owner (phase 2: every cell served there
// by one peer cache fetch), until the run's time is up.
func runFleet(ctx context.Context, e *env) (*report, error) {
	rep := newReport("fleet")
	su, err := startRepeatedly(daemonSetupReps, &rep.setup, func() (fleetSetup, error) { return setUpFleet(e) })
	if err != nil {
		return nil, err
	}
	f := su.f
	fr, runErr := fleetRounds(ctx, e, rep, su)
	if runErr == nil && e.traced {
		runErr = fleetProbes(ctx, e, rep, f, fr.items)
	}
	// Daemons fold a job's counters in after answering it; once drained,
	// every count below is final.
	stopErr := f.stop()
	if err := errors.Join(runErr, stopErr); err != nil {
		return nil, err
	}
	var simulated uint64
	for _, d := range f.daemons {
		e.spans.addDaemon(d)
		for _, eng := range d.srv.Metrics().Snapshot().Engines {
			simulated += eng.Refs
		}
	}
	jobs := f.jobsTotal()
	hits, misses := f.counter("cluster_peer_fetch_hits"), f.counter("cluster_peer_fetch_misses")
	// Exactly once: phase 1 simulates every distinct cell once (a fired
	// hedge may add one simulation), and phase 2 serves every cell on each
	// non-owner with one verified peer fetch and no simulation.
	cells := uint64(len(fr.items))
	hedges := fr.clusterMetrics.CounterValue("cluster_hedge_fired")
	rep.tally.check("fleet exactly-once", func() error {
		if jobs < cells || jobs > cells+hedges {
			return fmt.Errorf("fleet simulated %d times for %d distinct cells with %d hedges", jobs, cells, hedges)
		}
		if want := cells * (fleetSize - 1); hits != want {
			return fmt.Errorf("%d peer fetch hits, want %d: one per cell per non-owner", hits, want)
		}
		if hedges == 0 && simulated != fr.engineRefs {
			return fmt.Errorf("fleet simulated %d engine refs, phase 1 answers account for %d", simulated, fr.engineRefs)
		}
		return nil
	}())
	rep.layers.set("cluster.sims_per_cell", float64(jobs)/float64(cells), "ratio")
	rep.layers.set("cluster.peer_fetch_hits", float64(hits), "count")
	rep.layers.set("cluster.peer_fetch_misses", float64(misses), "count")
	rep.layers.set("cluster.hedges_fired", float64(hedges), "count")
	resimCheck(ctx, e.seed, "fleet-resim", fr.items, rep.tally)
	return rep, nil
}

// fleetRun is what the timed rounds leave for the checks and probes.
type fleetRun struct {
	items          []*cellItem
	clusterMetrics *obs.Metrics
	// engineRefs is the references × schemes of every cell phase 1
	// answered.
	engineRefs uint64
}

// fleetRounds runs grid rounds until the run's time is up and at least
// fleetRSSRounds rounds have run, reading max_rss_mb when round
// fleetRSSRounds completes.
func fleetRounds(ctx context.Context, e *env, rep *report, su fleetSetup) (*fleetRun, error) {
	f := su.f
	tt := &timedTransport{lat: map[int]*latencies{}}
	hc := newHTTPClient(e.nproc, func(base http.RoundTripper) http.RoundTripper {
		tt.base = base
		return tt
	})
	fr := &fleetRun{clusterMetrics: obs.NewMetrics()}
	health := cluster.NewHealth()
	cc := &cluster.Client{
		Membership: f.mem,
		Router:     cluster.NewRouter(f.mem, health),
		Health:     health,
		HTTP:       hc,
		HedgeDelay: fleetHedge,
		After:      time.After,
		Tracer:     e.spans.tracerOrNil(),
		Metrics:    fr.clusterMetrics,
	}
	router := cluster.NewRouter(f.mem, nil)
	deadline := time.Now().Add(e.duration)
	for round := 0; round < fleetRSSRounds || time.Now().Before(deadline); round++ {
		cells, items := su.cells, su.items
		if round > 0 {
			var err error
			if cells, items, err = fleetRound(e.seed, round); err != nil {
				return nil, err
			}
		}
		fr.items = append(fr.items, items...)

		// Each round is one window. Phase 1: the sweep -cluster path.
		var w window
		tt.setPhase(1)
		t0 := time.Now()
		runErr := cc.RunCells(ctx, cells, e.nproc, func(i int, doc *spec.ResultDoc, err error) {
			rep.tally.attempt()
			if err == nil {
				err = checkAnswer(items[i], doc)
			}
			if err != nil {
				rep.tally.failErr("fleet phase 1 "+items[i].cell.Label(), err)
				return
			}
			items[i].answered.Store(true)
			w.cells++
			refs := uint64(cells[i].Trace.Refs * len(cells[i].Schemes))
			w.engineRefs += float64(refs)
			fr.engineRefs += refs
		})
		w.simDur = time.Since(t0)
		if runErr != nil {
			rep.tally.failErr("fleet phase 1", runErr)
		}
		p1 := tt.take(1)
		rep.cold.merge(p1)
		rep.req.merge(p1)

		// Phase 2: every cell again, to the peers that do not own it.
		tt.setPhase(2)
		w.cells += refetch(ctx, e, rep, f, router, items, hc)
		w.dur = time.Since(t0)
		rep.windows = append(rep.windows, w)
		rep.cells += w.cells
		p2 := tt.take(2)
		rep.hit.merge(p2)
		rep.req.merge(p2)
		if round+1 == fleetRSSRounds {
			rep.rssMB = maxRSSMB()
		}
	}
	return fr, nil
}

// refetch sends every cell through remote.Client to each peer that does
// not own it (every entry of its HRW order after the first), from nproc
// workers, and returns how many answers passed their checks. Asking both non-owners, not only the second entry, keeps hits
// at two thirds of the fleet's requests: with as many hits as cold
// requests, the request median would fall in the gap between the two.
func refetch(ctx context.Context, e *env, rep *report, f *fleet, router *cluster.Router, items []*cellItem, hc *http.Client) int {
	type fetch struct {
		it   *cellItem
		rank int
	}
	next := make(chan fetch)
	var wg sync.WaitGroup
	served := make([]int, e.nproc)
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for fe := range next {
				it := fe.it
				peer := router.Order(it.cellHash)[fe.rank]
				rc := &remote.Client{BaseURL: f.mem.Peers[peer].Addr, HTTP: hc}
				sp := e.spans.start(it.cellHash, "fleet.refetch")
				rctx := ctx
				if e.traced {
					rctx = otrace.With(ctx, sp.Context())
				}
				rep.tally.attempt()
				doc, err := rc.Run(rctx, it.req)
				sp.Finish()
				if err == nil {
					err = checkAnswer(it, doc)
				}
				if err != nil {
					rep.tally.failErr("fleet phase 2 "+it.cell.Label(), err)
					continue
				}
				served[w]++
			}
		}(w)
	}
	for _, it := range items {
		for rank := 1; rank < fleetSize; rank++ {
			next <- fetch{it, rank}
		}
	}
	close(next)
	wg.Wait()
	total := 0
	for _, n := range served {
		total += n
	}
	return total
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dirsim/internal/otrace"
	"dirsim/internal/remote"
	"dirsim/internal/server"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

const (
	// serveCacheEntries keeps the daemon's in-memory result LRU well
	// below one epoch's pool of servePool cells.
	serveCacheEntries = 32
	// resimCells is how many answered cells are re-simulated locally
	// after each daemon workload's timed phase.
	resimCells = 8
	// serveRSSRequests is the point of the schedule at which serve reads
	// max_rss_mb: when this many requests have completed. The daemon
	// keeps every job it has answered, so its memory grows with the work
	// done; read at a fixed amount of work rather than at the end of a
	// fixed-time run, the figure does not rise with throughput. The run
	// lasts until at least this many requests are issued.
	serveRSSRequests = 3 * serveEpoch
)

// cellItem is one cell the benchmark may request, with everything the
// request path needs precomputed outside the timed call.
type cellItem struct {
	cell     spec.Cell
	req      spec.Request
	reqHash  string
	cellHash string
	// issued and answered classify requests: the first request issued
	// for a cell is its cold request (it waits on the cell's only
	// simulation); requests issued after an answer arrived are hits.
	issued   atomic.Bool
	answered atomic.Bool
	// first is the first answer received for the cell.
	mu    sync.Mutex
	first *spec.ResultDoc
}

func newCellItem(c spec.Cell) (*cellItem, error) {
	req := spec.Request{Cell: &c}
	rh, err := req.Hash()
	if err != nil {
		return nil, err
	}
	ch, err := c.Hash()
	if err != nil {
		return nil, err
	}
	return &cellItem{cell: c, req: req, reqHash: rh, cellHash: ch}, nil
}

// servePlan is the serve request schedule, one epoch at a time.
type servePlan struct {
	seed   int64
	mu     sync.Mutex
	epochs map[int]*serveEpochPlan
}

type serveEpochPlan struct {
	pool  []*cellItem
	order []int
}

// epoch builds (once) and returns epoch e's pool and request order.
func (p *servePlan) epoch(e int) (*serveEpochPlan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ep, ok := p.epochs[e]; ok {
		return ep, nil
	}
	ep := &serveEpochPlan{pool: make([]*cellItem, servePool), order: serveSchedule(p.seed, e)}
	for k := range ep.pool {
		c, err := servePoolCell(p.seed, e, k)
		if err != nil {
			return nil, err
		}
		if ep.pool[k], err = newCellItem(c); err != nil {
			return nil, err
		}
	}
	p.epochs[e] = ep
	return ep, nil
}

// item returns the cell of the i-th request of the run.
func (p *servePlan) item(i int) (*cellItem, error) {
	ep, err := p.epoch(i / serveEpoch)
	if err != nil {
		return nil, err
	}
	return ep.pool[ep.order[i%serveEpoch]], nil
}

// answered lists every cell that received an answer, in schedule order
// (epoch, then pool index), so a seeded sample of it is reproducible.
func (p *servePlan) answered() []*cellItem {
	p.mu.Lock()
	defer p.mu.Unlock()
	es := make([]int, 0, len(p.epochs))
	for e := range p.epochs {
		es = append(es, e)
	}
	sort.Ints(es)
	var out []*cellItem
	for _, e := range es {
		for _, it := range p.epochs[e].pool {
			if it.answered.Load() {
				out = append(out, it)
			}
		}
	}
	return out
}

// startServeDaemon starts the serve daemon. It runs without a state
// dir: with the journal and disk cache on, the four fsyncs of every first
// touch made cold latency and throughput vary by 30–40% between runs on
// a shared 2-vCPU VM, so those writes are timed in isolation by the
// atomicio probes of the traced run instead.
func startServeDaemon(nproc int, traced bool) (*daemon, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	return startDaemon(ln, server.Config{
		Workers:      1,
		Executors:    nproc,
		QueueDepth:   4 * nproc,
		CacheEntries: serveCacheEntries,
	}, traced)
}

// serveSetup is what serve sets up before its timed phase: the daemon,
// and the request plan with its first epoch of cells and content hashes
// built.
type serveSetup struct {
	d    *daemon
	plan *servePlan
}

func (s serveSetup) stop() error { return s.d.stop() }

func setUpServe(e *env) (serveSetup, error) {
	d, err := startServeDaemon(e.nproc, e.traced)
	if err != nil {
		return serveSetup{}, err
	}
	plan := &servePlan{seed: e.seed, epochs: map[int]*serveEpochPlan{}}
	if _, err := plan.epoch(0); err != nil {
		return serveSetup{}, errors.Join(err, d.stop())
	}
	return serveSetup{d: d, plan: plan}, nil
}

// runServe is the serve workload: nproc closed-loop clients posting
// single-cell ?wait=1 requests to one daemon.
func runServe(ctx context.Context, e *env) (*report, error) {
	rep := newReport("serve")
	su, err := startRepeatedly(daemonSetupReps, &rep.setup, func() (serveSetup, error) { return setUpServe(e) })
	if err != nil {
		return nil, err
	}
	d, plan := su.d, su.plan
	hc := newHTTPClient(e.nproc, nil)
	answeredRefs, runErr := serveLoop(ctx, e, rep, plan, d.url, hc)
	// The daemon folds a job's counters in after answering it; once
	// drained, the snapshot is final.
	stopErr := d.stop()
	if err := errors.Join(runErr, stopErr); err != nil {
		return nil, err
	}
	snap := d.srv.Metrics().Snapshot()
	e.spans.addDaemon(d)
	// Every cell the daemon simulated was answered once for the first
	// time, so the work the benchmark attributes to first answers must
	// be exactly the work the daemon counted.
	var simulated uint64
	for _, eng := range snap.Engines {
		simulated += eng.Refs
	}
	rep.tally.check("serve simulated work", func() error {
		if simulated != answeredRefs {
			return fmt.Errorf("daemon simulated %d engine refs, first answers account for %d", simulated, answeredRefs)
		}
		return nil
	}())
	rep.layers.set("server.sim_jobs", float64(snap.JobsTotal), "count")
	if rep.cells > 0 {
		rep.layers.set("server.hit_ratio", 1-float64(snap.JobsTotal)/float64(rep.cells), "ratio")
	}
	answered := plan.answered()
	if len(answered) > 0 {
		b, err := json.Marshal(answered[0].first)
		if err != nil {
			return nil, err
		}
		rep.docBytes = len(b)
	}
	resimCheck(ctx, e.seed, "serve-resim", answered, rep.tally)
	return rep, nil
}

// reqSample is one serve request's outcome.
type reqSample struct {
	idx       int           // position in the schedule
	end       time.Duration // completion, from the start of the timed phase
	d         time.Duration
	failed    bool
	cold, hit bool
	// engineRefs is the references × schemes the daemon simulated for
	// this answer: the cell's whole work for its first answer, else 0.
	engineRefs uint64
}

// serveLoop runs the closed loop until the run's time is up and at least
// serveRSSRequests requests were issued: each client takes the next
// request of the schedule, waits for its answer, and checks it before
// taking another. The client that completes request serveRSSRequests
// reads max_rss_mb. It returns the references × schemes the first
// answers account for.
func serveLoop(ctx context.Context, e *env, rep *report, plan *servePlan, url string, hc *http.Client) (uint64, error) {
	var cursor, completed atomic.Int64
	start := time.Now()
	deadline := start.Add(e.duration)
	per := make([][]reqSample, e.nproc)
	errs := make([]error, e.nproc)
	var wg sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rc := &remote.Client{BaseURL: url, HTTP: hc}
			for {
				i := int(cursor.Add(1) - 1)
				if i >= max(minSamples, serveRSSRequests) && !time.Now().Before(deadline) {
					return
				}
				it, err := plan.item(i)
				if err != nil {
					errs[w] = err
					return
				}
				s := serveRequest(ctx, e, rc, it, rep.tally)
				s.idx, s.end = i, time.Since(start)
				per[w] = append(per[w], s)
				if completed.Add(1) == serveRSSRequests {
					rep.rssMB = maxRSSMB()
				}
			}
		}(w)
	}
	wg.Wait()
	var all []reqSample
	for _, samples := range per {
		all = append(all, samples...)
	}
	rep.windows = epochWindows(all, time.Since(start))
	var engineRefs uint64
	for _, s := range all {
		engineRefs += s.engineRefs
		addSample(&rep.req, s)
		if s.cold {
			addSample(&rep.cold, s)
		}
		if s.hit {
			addSample(&rep.hit, s)
		}
		if !s.failed {
			rep.cells++
		}
	}
	return engineRefs, errors.Join(errs...)
}

// epochWindows cuts the run into its schedule epochs: every epoch starts
// a fresh pool, so each has the same mix of first touches and repeats,
// and a rate taken per epoch is unbiased by where the run stops. An epoch
// ends when its last request completes. Only complete epochs count,
// unless the run was too short to complete one, when the whole run is
// the one window.
func epochWindows(samples []reqSample, wall time.Duration) []window {
	byEpoch := map[int][]reqSample{}
	for _, s := range samples {
		byEpoch[s.idx/serveEpoch] = append(byEpoch[s.idx/serveEpoch], s)
	}
	var wins []window
	var prevEnd time.Duration
	for k := 0; len(byEpoch[k]) == serveEpoch; k++ {
		w, end := epochWindow(byEpoch[k])
		w.dur = end - prevEnd
		w.simDur = w.dur
		wins = append(wins, w)
		prevEnd = end
	}
	if len(wins) == 0 {
		w, _ := epochWindow(samples)
		w.dur, w.simDur = wall, wall
		wins = append(wins, w)
	}
	return wins
}

// epochWindow totals one epoch's answers and finds when it ended.
func epochWindow(samples []reqSample) (window, time.Duration) {
	var w window
	var end time.Duration
	for _, s := range samples {
		end = max(end, s.end)
		w.engineRefs += float64(s.engineRefs)
		if !s.failed {
			w.cells++
		}
	}
	return w, end
}

func addSample(l *latencies, s reqSample) {
	if s.failed {
		l.failed++
	} else {
		l.add(s.d)
	}
}

// serveRequest issues one request, times it, and checks the answer: it
// must verify against the cell's content address and be byte-identical
// to the first answer for the cell.
func serveRequest(ctx context.Context, e *env, rc *remote.Client, it *cellItem, t *tally) reqSample {
	s := reqSample{cold: !it.issued.Swap(true)}
	s.hit = !s.cold && it.answered.Load()
	rctx := ctx
	sp := e.spans.start(it.reqHash, "serve.request")
	if e.traced {
		rctx = otrace.With(ctx, sp.Context())
	}
	t.attempt()
	t0 := time.Now()
	doc, err := rc.Run(rctx, it.req)
	s.d = time.Since(t0)
	sp.Finish()
	if err == nil {
		err = checkAnswer(it, doc)
	}
	if err != nil {
		t.failErr("serve request "+it.cell.Label(), err)
		s.failed = true
		return s
	}
	if !it.answered.Swap(true) {
		s.engineRefs = uint64(it.cell.Trace.Refs * len(it.cell.Schemes))
	}
	return s
}

// checkAnswer verifies one answer for it: its cell document must pass
// spec.VerifyCellDoc under the cell's hash, and the whole document must
// be byte-identical to the first answer for the cell.
func checkAnswer(it *cellItem, doc *spec.ResultDoc) error {
	if len(doc.Cells) != 1 {
		return fmt.Errorf("answer has %d cells, want 1", len(doc.Cells))
	}
	cd, err := json.Marshal(spec.CellDoc{SpecVersion: doc.SpecVersion, Spec: doc.Cells[0].Spec, Results: doc.Cells[0].Results})
	if err != nil {
		return err
	}
	if err := spec.VerifyCellDoc(it.cellHash, cd); err != nil {
		return err
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.first == nil {
		it.first = doc
		return nil
	}
	a, err := json.Marshal(it.first)
	if err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return errors.New("answer differs from the first answer for the cell")
	}
	return nil
}

// resimCheck re-simulates a seeded sample of answered cells with
// sim.RunSchemes over the generated trace and requires the daemon's
// stored results to match them byte for byte.
func resimCheck(ctx context.Context, seed int64, stream string, items []*cellItem, t *tally) {
	for _, i := range sample(seed, stream, len(items), resimCells) {
		it := items[i]
		t.check("re-simulate "+it.cell.Label(), resimulate(ctx, it))
	}
}

func resimulate(ctx context.Context, it *cellItem) error {
	refs, err := tracegen.Generate(it.cell.Trace)
	if err != nil {
		return err
	}
	rs, err := sim.RunSchemes(ctx, trace.NewSliceReader(refs), it.cell.Schemes, it.cell.Machine, it.cell.Sim.Options())
	if err != nil {
		return err
	}
	local, err := schemeResultsJSON(rs)
	if err != nil {
		return err
	}
	it.mu.Lock()
	first := it.first
	it.mu.Unlock()
	if first == nil {
		return errors.New("no answer recorded")
	}
	if string(first.Cells[0].Results) != string(local) {
		return errors.New("daemon results differ from a local sim.RunSchemes of the same cell")
	}
	return nil
}

// schemeResultsJSON renders results as a cell document's results array.
func schemeResultsJSON(rs []sim.Result) ([]byte, error) {
	srs := make([]spec.SchemeResult, len(rs))
	for k, r := range rs {
		srs[k] = spec.SchemeResult{Scheme: r.Scheme, Stats: r.Stats}
	}
	return json.Marshal(srs)
}

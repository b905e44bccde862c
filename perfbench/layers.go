package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dirsim/internal/atomicio"
	"dirsim/internal/blockid"
	"dirsim/internal/cluster"
	"dirsim/internal/coherence"
	"dirsim/internal/events"
	"dirsim/internal/flight"
	"dirsim/internal/otrace"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

const (
	// layerReps is how many times each isolated layer call repeats; the
	// median is reported.
	layerReps = 3
	// layerSumTolerance is how far the layer sum may stray from the
	// one-worker replay before the run flags it.
	layerSumTolerance = 0.15
	// probeCalls bounds the per-call probes (hashing, journal appends,
	// cache writes, peer fetches).
	probeCalls = 48
)

// tracedSuite is the traced run: the replay layers, then serve and fleet
// with spans recorded on both sides of every request, then the isolated
// probes, one merged span file and its validation. Untraced figures stay
// the end-to-end record; the traced serve and fleet figures are printed
// beside the layers so the tracing overhead can be read off.
func tracedSuite(ctx context.Context, e *env, workload string) (result, error) {
	e.spans = newSpanSet()
	all := metrics{}
	t := newTally()
	if err := replayLayers(ctx, e, all, t); err != nil {
		return result{}, err
	}
	// serve and fleet run for as long as untraced ones, so the traced
	// figures differ from the untraced record only by the tracing.
	srep, err := runServe(ctx, e)
	if err != nil {
		return result{}, err
	}
	frep, err := runFleet(ctx, e)
	if err != nil {
		return result{}, err
	}
	for _, rep := range []*report{srep, frep} {
		for k, v := range rep.layers {
			all[k] = v
		}
		rep.name = "traced " + rep.name
		endToEnd(rep)
		t.merge(rep.tally)
	}
	if err := serveProbes(ctx, e, srep, all); err != nil {
		return result{}, err
	}

	spans, err := e.spans.all()
	if err != nil {
		return result{}, err
	}
	self := selfTimes(spans)
	for _, name := range daemonSpanNames {
		xs := self[name]
		all.set("server."+name+".count", float64(len(xs)), "count")
		// cell-cache spans open and close around a map lookup with nothing
		// inside; only their count carries information.
		if name != "cell-cache" {
			all.set("server."+name+".self_ms_p50", median(xs), "ms")
		}
	}
	path := filepath.Join(e.work, fmt.Sprintf("spans-%s-seed%d.ndjson", workload, e.seed))
	// The bench client, the serve daemon and the three fleet daemons.
	minServices := 2 + fleetSize
	t.check("span file", writeAndCheck(ctx, spans, path, e.tracecheck, minServices))
	fmt.Printf("traced: %d spans from %d services written to %s\n", len(spans), services(spans), path)
	for _, r := range t.reasons {
		fmt.Printf("traced: FAILED %s\n", r)
	}
	printMetrics("layer", all)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: all}, nil
}

// decodedRef is one pre-interned reference, as the simulator's decode
// stage hands it to the engines.
type decodedRef struct {
	cache int
	kind  trace.Kind
	block uint64
	id    blockid.ID
	first bool
}

// replayLayers times each layer of the replay path in isolation on the
// replay workload's trace, and the whole path at one worker, at nproc
// workers and with a flight recorder attached. Every repetition times
// all of them in turn, so a slow spell of the machine hits one
// repetition's layers and its replays alike, and the layer sum is
// compared with the replay of its own repetition.
func replayLayers(ctx context.Context, e *env, m metrics, t *tally) error {
	cfg := replayTrace(e.seed)
	names := coherence.EngineNames()
	traceID, err := (spec.Cell{Trace: cfg, Schemes: names, Machine: coherence.Config{Caches: replayCPUs}}).Hash()
	if err != nil {
		return err
	}
	enc, err := generateEncoded(cfg)
	if err != nil {
		return err
	}
	refs, err := trace.ReadAll(trace.NewBinaryReader(bytes.NewReader(enc)))
	if err != nil {
		return err
	}
	// The data-block stream, and the pre-interned stream every engine is
	// timed over.
	var blocks []uint64
	tab := blockid.New()
	stream := make([]decodedRef, len(refs))
	for i, r := range refs {
		d := decodedRef{cache: int(r.CPU), kind: r.Kind, block: trace.Block(r.Addr, trace.DefaultBlockBytes)}
		if r.Kind != trace.Instr {
			blocks = append(blocks, d.block)
			d.id, d.first = tab.Intern(d.block)
		}
		stream[i] = d
	}
	refs = nil

	timed := func(name string, out *[]float64, f func() error) error {
		sp := e.spans.start(traceID, name)
		t0 := time.Now()
		err := f()
		*out = append(*out, float64(time.Since(t0).Nanoseconds()))
		sp.Finish()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var want string
	replay := func(parallel int, withFlight bool) func() error {
		return func() error {
			var rec *flight.Recorder
			if withFlight {
				rec = flight.New(flight.Options{Sample: flight.DefaultSample})
			}
			rs, err := replayOnce(ctx, enc, parallel, rec)
			if err != nil || want != "" {
				t.check("traced replay digest", digestIs(rs, err, want))
				return nil
			}
			want, err = digest(rs)
			return err
		}
	}
	// Decode is timed as sim.Run consumes it, one Next call per
	// reference; trace.ReadAll would add the cost of growing its slice.
	decodeAll := func() error {
		rd := trace.NewBinaryReader(bytes.NewReader(enc))
		for {
			if _, err := rd.Next(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}
	internAll := func() error {
		tab := blockid.New()
		for _, b := range blocks {
			tab.Intern(b)
		}
		return nil
	}
	driver := func() error {
		engs := make([]coherence.Engine, len(names))
		for i := range engs {
			engs[i] = &noopEngine{caches: replayCPUs}
		}
		_, err := sim.Run(ctx, trace.NewBinaryReader(bytes.NewReader(enc)), engs, sim.Options{Parallel: 1})
		return err
	}

	var decode, intern, access, noop, seq, par, rec, ratio []float64
	perEngine := make([][]float64, len(names))
	var mallocs uint64
	for rep := 0; rep < layerReps; rep++ {
		ns, allocs, err := timeEach(e, traceID, tab, stream)
		if err != nil {
			return err
		}
		for k := range names {
			perEngine[k] = append(perEngine[k], ns[k])
		}
		mallocs += allocs
		for _, step := range []struct {
			name string
			out  *[]float64
			f    func() error
		}{
			{"trace.decode", &decode, decodeAll},
			{"blockid.intern", &intern, internAll},
			{"coherence.access", &access, func() error { return accessTogether(tab, stream) }},
			{"sim.driver", &noop, driver},
			{"replay.parallel-1", &seq, replay(1, false)},
			{"replay.parallel-n", &par, replay(e.nproc, false)},
			{"replay.flight", &rec, replay(e.nproc, true)},
		} {
			if err := timed(step.name, step.out, step.f); err != nil {
				return err
			}
		}
		// decode + intern + access + driver, where driver is the no-op
		// run less decode and intern: the no-op run plus access.
		ratio = append(ratio, (noop[rep]+access[rep])/seq[rep])
	}

	n := float64(replayRefs)
	for k, name := range names {
		m.set("coherence."+name+".ns_per_ref", median(perEngine[k])/n, "ns")
	}
	m.set("coherence.allocs_per_kref", float64(mallocs)/(float64(layerReps*len(names))*n/1000), "allocs")
	dec, in, acc := median(decode)/n, median(intern)/n, median(access)/n
	drv := median(noop)/n - dec - in
	m.set("trace.decode_ns_per_ref", dec, "ns")
	m.set("blockid.intern_ns_per_ref", median(intern)/float64(len(blocks)), "ns")
	m.set("coherence.access_ns_per_ref", acc, "ns")
	m.set("sim.driver_ns_per_ref", drv, "ns")
	m.set("sim.parallel_speedup", median(seq)/median(par), "ratio")
	m.set("flight.overhead_frac", median(rec)/median(par)-1, "ratio")
	// The layers are timed one at a time on one goroutine, so their sum
	// is comparable with the one-worker replay; the nproc replay is that
	// figure divided by sim.parallel_speedup.
	// Decode and intern cancel out of the sum, so the ratio checks only
	// the no-op run plus access; a driver residual at or below zero
	// shows that decode and intern were timed above their share of the
	// no-op run.
	r := median(ratio)
	m.set("sim.layer_sum_ratio", r, "ratio")
	fmt.Printf("layers: decode %.2f + intern %.2f + access %.2f + driver %.2f = %.2f ns/ref; one-worker replay %.2f ns/ref\n",
		dec, in, acc, drv, dec+in+acc+drv, median(seq)/n)
	if r < 1-layerSumTolerance || r > 1+layerSumTolerance {
		fmt.Printf("layers: FLAG sim.layer_sum_ratio %.3f is outside 1±%.2f: the layers do not explain the replay time\n", r, layerSumTolerance)
	}
	if drv <= 0 {
		fmt.Printf("layers: FLAG sim.driver_ns_per_ref %.2f is not positive: decode and intern exceed the no-op run\n", drv)
	}
	return nil
}

// bindAll returns a fresh instance of every registered engine, bound to
// the pre-interned table tab.
func bindAll(tab *blockid.Table) ([]coherence.IndexedEngine, error) {
	names := coherence.EngineNames()
	engs := make([]coherence.IndexedEngine, len(names))
	for k, name := range names {
		eng, err := coherence.NewByName(name, coherence.Config{Caches: replayCPUs})
		if err != nil {
			return nil, err
		}
		ie, ok := eng.(coherence.IndexedEngine)
		if !ok || !ie.BindBlocks(tab) {
			return nil, fmt.Errorf("engine %s does not accept a pre-interned block table", name)
		}
		engs[k] = ie
	}
	return engs, nil
}

// timeEach feeds the pre-interned stream through AccessID to a fresh
// instance of each engine in turn, returning each engine's time in
// nanoseconds and the allocations all of them made.
func timeEach(e *env, traceID string, tab *blockid.Table, stream []decodedRef) ([]float64, uint64, error) {
	engs, err := bindAll(tab)
	if err != nil {
		return nil, 0, err
	}
	ns := make([]float64, len(engs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k, ie := range engs {
		sp := e.spans.start(traceID, "coherence.access-one")
		t0 := time.Now()
		for i := range stream {
			r := &stream[i]
			ie.AccessID(r.cache, r.kind, r.block, r.id, r.first)
		}
		ns[k] = float64(time.Since(t0).Nanoseconds())
		sp.Finish()
	}
	runtime.ReadMemStats(&after)
	return ns, after.Mallocs - before.Mallocs, nil
}

// accessTogether feeds the stream to a fresh instance of every engine in
// sim.Run's order — each reference to all engines before the next.
// Engines run measurably faster this way than one after another over the
// whole stream, so this is the access term of the layer sum.
func accessTogether(tab *blockid.Table, stream []decodedRef) error {
	engs, err := bindAll(tab)
	if err != nil {
		return err
	}
	for i := range stream {
		r := &stream[i]
		for _, ie := range engs {
			ie.AccessID(r.cache, r.kind, r.block, r.id, r.first)
		}
	}
	return nil
}

// noopEngine accepts every reference and does nothing, so a run over it
// times sim.Run's own work alone: decode, interning, batching and dispatch.
type noopEngine struct {
	caches int
	stats  coherence.Stats
}

func (n *noopEngine) Name() string                                     { return "noop" }
func (n *noopEngine) Caches() int                                      { return n.caches }
func (n *noopEngine) Access(int, trace.Kind, uint64, bool) events.Type { return 0 }
func (n *noopEngine) Stats() *coherence.Stats                          { return &n.stats }
func (n *noopEngine) ResetStats()                                      {}
func (n *noopEngine) CheckInvariants() error                           { return nil }
func (n *noopEngine) BindBlocks(*blockid.Table) bool                   { return true }
func (n *noopEngine) AccessInstrs(uint64)                              {}
func (n *noopEngine) AccessID(int, trace.Kind, uint64, blockid.ID, bool) events.Type {
	return 0
}

// serveProbes times the layers a serve first touch passes through, on
// the serve workload's own inputs: trace generation for distinct cells,
// request hashing, and journal and cache-file writes of the sizes the
// daemon writes.
func serveProbes(ctx context.Context, e *env, srep *report, m metrics) error {
	plan := &servePlan{seed: e.seed, epochs: map[int]*serveEpochPlan{}}
	ep, err := plan.epoch(0)
	if err != nil {
		return err
	}
	grid, err := fleetGrid(e.seed, 0)
	if err != nil {
		return err
	}
	var genNS, genRefs float64
	cells := append([]spec.Cell(nil), grid...)
	for _, i := range sample(e.seed, "gen-probe", len(ep.pool), 12) {
		cells = append(cells, ep.pool[i].cell)
	}
	for _, c := range cells {
		h, err := c.Hash()
		if err != nil {
			return err
		}
		sp := e.spans.start(h, "tracegen.generate")
		t0 := time.Now()
		_, err = tracegen.Generate(c.Trace)
		genNS += float64(time.Since(t0).Nanoseconds())
		sp.Finish()
		if err != nil {
			return err
		}
		genRefs += float64(c.Trace.Refs)
	}
	m.set("tracegen.gen_ns_per_ref", genNS/genRefs, "ns")

	var hashUS []float64
	for _, it := range ep.pool[:probeCalls] {
		sp := e.spans.start(it.reqHash, "spec.hash")
		t0 := time.Now()
		_, err := it.req.Hash()
		hashUS = append(hashUS, float64(time.Since(t0).Nanoseconds())/1e3)
		sp.Finish()
		if err != nil {
			return err
		}
	}
	m.set("spec.hash_us", median(hashUS), "us")

	dir, err := os.MkdirTemp(e.work, "io-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	canon, err := ep.pool[0].req.Canonical()
	if err != nil {
		return err
	}
	// An accept record carries the canonical request, the job id and the
	// trace id.
	rec := bytes.Repeat([]byte("a"), len(canon)+2*64+64)
	j, err := atomicio.OpenJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		return err
	}
	var appendUS []float64
	for i := 0; i < probeCalls; i++ {
		sp := e.spans.start(ep.pool[0].reqHash, "atomicio.journal-append")
		t0 := time.Now()
		err := j.Append(rec)
		appendUS = append(appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
		sp.Finish()
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	m.set("atomicio.journal_append_us", median(appendUS), "us")

	doc := bytes.Repeat([]byte("d"), srep.docBytes)
	var writeUS []float64
	for i := 0; i < probeCalls; i++ {
		sp := e.spans.start(ep.pool[0].reqHash, "atomicio.writefile")
		t0 := time.Now()
		err := atomicio.WriteFile(filepath.Join(dir, fmt.Sprintf("doc-%d.json", i%8)), doc)
		writeUS = append(writeUS, float64(time.Since(t0).Nanoseconds())/1e3)
		sp.Finish()
		if err != nil {
			return err
		}
	}
	m.set("atomicio.writefile_us", median(writeUS), "us")
	return nil
}

// fleetProbes times routing and the peer cache fetch in isolation against
// the running fleet: Router.Order over every cell of the run, and a
// CacheClient.Fetch from each sampled cell's owner, whose document must
// verify.
func fleetProbes(ctx context.Context, e *env, rep *report, f *fleet, items []*cellItem) error {
	router := cluster.NewRouter(f.mem, nil)
	const routeReps = 200
	sp := e.spans.start(items[0].cellHash, "cluster.route")
	t0 := time.Now()
	for r := 0; r < routeReps; r++ {
		for _, it := range items {
			router.Order(it.cellHash)
		}
	}
	rep.layers.set("cluster.route_ns", float64(time.Since(t0).Nanoseconds())/float64(routeReps*len(items)), "ns")
	sp.Finish()

	cc := &cluster.CacheClient{HTTP: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}, Key: f.mem.Key}
	var fetchMS, verifyUS []float64
	for _, i := range sample(e.seed, "fetch-probe", len(items), probeCalls) {
		it := items[i]
		owner := f.mem.Peers[router.Order(it.cellHash)[0]].Addr
		sp := e.spans.start(it.cellHash, "cluster.fetch")
		fctx := ctx
		if e.traced {
			fctx = otrace.With(ctx, sp.Context())
		}
		t0 := time.Now()
		data, found, err := cc.Fetch(fctx, owner, it.cellHash)
		fetchMS = append(fetchMS, float64(time.Since(t0).Nanoseconds())/1e6)
		sp.Finish()
		rep.tally.attempt()
		if err == nil && !found {
			err = errors.New("owner has no document")
		}
		if err != nil {
			rep.tally.failErr("peer fetch "+it.cell.Label(), err)
			continue
		}
		vsp := e.spans.start(it.cellHash, "spec.verify")
		t0 = time.Now()
		err = spec.VerifyCellDoc(it.cellHash, data)
		verifyUS = append(verifyUS, float64(time.Since(t0).Nanoseconds())/1e3)
		vsp.Finish()
		if err != nil {
			rep.tally.failErr("peer fetch "+it.cell.Label(), err)
		}
	}
	rep.layers.set("cluster.peer_fetch_ms_p50", median(fetchMS), "ms")
	rep.layers.set("spec.verify_us", median(verifyUS), "us")
	return nil
}

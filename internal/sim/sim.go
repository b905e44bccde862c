// Package sim drives coherence protocol engines over multiprocessor
// address traces, reproducing the methodology of Section 4.
//
// The driver streams a trace once: references are decoded into batches —
// cache attribution resolved, block number computed, the paper's
// first-reference exclusion applied from one shared block interner ("we
// exclude the misses caused by the first reference to a block in the trace
// because these occur in a uniprocessor infinite cache as well") — and
// each batch is applied to every engine: each data reference to every
// engine before the next, with instruction fetches, which change no
// protocol state, counted and handed to each engine once per stretch of
// the batch. One decode loop serves every run shape: with
// Options.Parallel ≤ 1 the batches are applied inline on the caller's
// goroutine; above that they fan out to engine groups on worker
// goroutines through a fixed pool of recycled batch buffers. Each engine
// sees the full stream in order either way, so the results are bitwise
// identical. The one specialisation is a fused decode-and-apply loop for
// a single id-indexed engine over a chunked reader (trace.ChunkReader: an
// in-memory trace or a generator) with no recorder.
// Results carry the Table 4 event counts, the bus-operation tallies priced
// by internal/bus, and the Figure 1 invalidation-fanout histogram.
//
// Run simulates every engine it is given. RunSchemes, which builds its
// own engines, simulates only those whose Stats no other engine of the
// run determines, and prices the rest from a simulated basis sharing
// their state-change model, as the paper prices event frequencies
// (Section 4.1): Tang from Dir_nNB; Dir0B, Berkeley and every Dir_iB
// from a directory engine that never evicts a copy; and WTI, Write-Once
// and MESI from any multiple-readers/single-writer engine
// (coherence.PricedFrom states the conditions). Of the 17 registry
// schemes it simulates nine. The results are those of simulating every
// engine; a traced run simulates every engine so each keeps its own
// flight track.
package sim

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/coherence"
	"dirsim/internal/events"
	"dirsim/internal/flight"
	"dirsim/internal/trace"
)

// CacheBy selects which trace field identifies the cache a reference goes
// to.
type CacheBy int

const (
	// ByCPU assigns references to per-processor caches (the physical
	// arrangement).
	ByCPU CacheBy = iota
	// ByProcess assigns references to per-process caches, eliminating
	// migration-induced sharing — the attribution the paper prefers
	// (Section 4.4). Process IDs are mapped densely to cache indices in
	// order of first appearance.
	ByProcess
)

// Options configures a simulation run.
type Options struct {
	// BlockBytes is the coherence block size; zero means the paper's 16
	// bytes. Must be a power of two.
	BlockBytes int
	// CacheBy selects per-CPU (default) or per-process caches.
	CacheBy CacheBy
	// IncludeFirstRefCosts prices cold misses instead of excluding them.
	// The paper's methodology excludes them; finite-cache studies may
	// want them included.
	IncludeFirstRefCosts bool
	// WarmupRefs, when positive, runs that many leading references
	// through the engines to populate caches and directories, then
	// discards the tallies: only the remainder of the trace is measured.
	// An alternative to first-reference exclusion for finite-cache
	// studies (the two compose).
	WarmupRefs int
	// Parallel is the number of engine worker goroutines the driver may
	// use. 0 or 1 applies each decoded batch to every engine inline, on
	// the goroutine that called Run; higher values fan the batches out to
	// engine groups running concurrently, engine i in group i mod
	// Parallel (at most one worker per engine is useful). Every engine
	// sees the full stream in order either way, so results are identical.
	Parallel int
	// OnProgress, when non-nil, is called with the number of references
	// decoded since the previous call, at batch granularity, from the
	// goroutine that called Run. It must be fast.
	OnProgress func(n int)
	// Recorder, when non-nil and enabled, captures sampled protocol
	// events and run-phase spans into flight rings. It is a pure
	// observer: engine Stats are bitwise identical with and without it.
	Recorder *flight.Recorder
}

func (o Options) blockBytes() int {
	if o.BlockBytes == 0 {
		return trace.DefaultBlockBytes
	}
	return o.BlockBytes
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.BlockBytes != 0 && !trace.IsPow2(o.BlockBytes) {
		return fmt.Errorf("sim: block size %d is not a power of two", o.BlockBytes)
	}
	if o.CacheBy != ByCPU && o.CacheBy != ByProcess {
		return fmt.Errorf("sim: unknown CacheBy %d", o.CacheBy)
	}
	if o.WarmupRefs < 0 {
		return fmt.Errorf("sim: negative WarmupRefs %d", o.WarmupRefs)
	}
	if o.Parallel < 0 {
		return fmt.Errorf("sim: negative Parallel %d", o.Parallel)
	}
	return nil
}

// workers returns the number of engine workers to use for n engines.
func (o Options) workers(n int) int {
	w := o.Parallel
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Result is the outcome of running one engine over one trace.
type Result struct {
	// Scheme is the engine's name.
	Scheme string
	// Stats are the engine's accumulated tallies: shared with the engine
	// when it was simulated (treat as read-only after the run), and owned
	// by the result, sharing nothing with any engine, when RunSchemes
	// priced it from a basis.
	Stats *coherence.Stats
	// adjust rewrites cost models for engines with a published cost
	// derivation (Berkeley's free directory checks); identity otherwise.
	adjust func(bus.CostModel) bus.CostModel
}

// Model returns the cost model as this scheme prices it (applying, e.g.,
// Berkeley's zero-cost directory checks).
func (r Result) Model(m bus.CostModel) bus.CostModel {
	if r.adjust != nil {
		return r.adjust(m)
	}
	return m
}

// CyclesPerRef prices the run under m, per reference — the paper's primary
// metric.
func (r Result) CyclesPerRef(m bus.CostModel) float64 {
	return r.Stats.CyclesPerRef(r.Model(m))
}

// CyclesPerRefWithOverhead adds Section 5.1's per-transaction overhead q.
func (r Result) CyclesPerRefWithOverhead(m bus.CostModel, q float64) float64 {
	return r.Stats.CyclesPerRefWithOverhead(r.Model(m), q)
}

// CyclesPerTransaction is Figure 5's metric.
func (r Result) CyclesPerTransaction(m bus.CostModel) float64 {
	return r.Stats.CyclesPerTransaction(r.Model(m))
}

// CyclesByOp returns the Table 5 per-operation breakdown.
func (r Result) CyclesByOp(m bus.CostModel) [bus.NumOps]float64 {
	return r.Model(m).CyclesByOp(r.Stats.Ops)
}

// EventFrequency returns an event's frequency as a fraction of all
// references (Table 4's unit, which prints it as a percentage).
func (r Result) EventFrequency(t events.Type) float64 {
	return r.Stats.Events.Frequency(t)
}

// AvgAccessTime prices the run under a processor-latency model — Section
// 5.1's "average memory access time as seen by each processor". The
// latency model's operation costs are adjusted the same way the scheme's
// cost model is (Berkeley's free directory checks).
func (r Result) AvgAccessTime(l bus.LatencyModel) float64 {
	base := bus.CostModel{Name: l.Name, Cost: l.Cost}
	adjusted := r.Model(base)
	l.Cost = adjusted.Cost
	return l.AvgAccessTime(r.Stats.Refs, r.Stats.Transactions, r.Stats.Ops)
}

// DirToMemBandwidthRatio compares directory accesses with memory accesses,
// quantifying Section 5's finding that "the required directory bandwidth is
// only slightly higher than the bandwidth to memory".
func (r Result) DirToMemBandwidthRatio() float64 {
	if r.Stats.MemAccesses == 0 {
		return 0
	}
	return float64(r.Stats.DirAccesses) / float64(r.Stats.MemAccesses)
}

// ErrNotCheckable is wrapped by VerifyAccounting's error for a result
// whose operations its events cannot account for: one that replaced
// sparse-directory entries.
var ErrNotCheckable = coherence.ErrNotCheckable

// VerifyAccounting checks that the frequency path (events × the scheme's
// per-event operations, plus one write-back per dirty finite-cache
// eviction) reproduces the engine's direct operation tally, where the
// scheme has a per-event table (coherence.VerifyAccounting). It returns
// nil for schemes that do not. A result with sparse-directory entry
// replacements is not checkable; the error then wraps ErrNotCheckable.
func VerifyAccounting(r Result) error { return coherence.VerifyAccounting(r.Scheme, r.Stats) }

// batchRefs is the decode granularity: cancellation checks, progress
// callbacks and the parallel fan-out all operate on batches of this many
// references, so a cancelled run returns within one batch.
const batchRefs = 4096

// decodedRef is one reference after the trace-level work is done: cache
// attribution resolved, block number computed and interned to a dense id,
// first-reference flag set from the interner's freshness bit. It packs
// into 16 bytes: a cache index always fits 16 bits, because it comes from
// an 8-bit CPU number or a dense index over 16-bit process ids.
type decodedRef struct {
	block uint64
	id    blockid.ID // dense block id; meaningless for Instr refs
	cache uint16
	kind  trace.Kind
	first bool
}

// decoder turns the raw reference stream into decodedRef batches. The
// shared block-id table and process-to-cache mapping live here, computed
// once in the decode stage, which is what makes the engines independent
// of each other and safe to fan out. Interning doubles as the paper's
// first-reference detection: a fresh id is by definition the first
// reference to that block in the trace, so the old seen-set is gone.
type decoder struct {
	rd trace.Reader
	// cr is rd's chunk interface, when it has one: chunks are then handed
	// over without a per-reference interface call. view is rd when it is
	// a SliceReader, whose chunks are views of its own slice. Otherwise
	// scratch receives each chunk, through ReadChunk or Next; it is nil
	// for a view.
	cr      trace.ChunkReader
	view    *trace.SliceReader
	scratch []trace.Ref
	caches  int
	// cpuFast bounds cacheOf's inline case: the cache count under ByCPU,
	// zero under ByProcess, where every reference takes the map.
	cpuFast int
	include bool
	// blockShift turns a byte address into a block number. Validate
	// guarantees the block size is a power of two, so the decode loop
	// shifts instead of dividing by a variable (a real division per
	// reference otherwise dominates single-engine decode).
	blockShift uint
	tab        *blockid.Table
	pidToCache map[uint16]int // ByProcess only
}

func newDecoder(rd trace.Reader, caches int, opts Options) *decoder {
	d := &decoder{
		rd:         rd,
		caches:     caches,
		include:    opts.IncludeFirstRefCosts,
		blockShift: uint(bits.TrailingZeros(uint(opts.blockBytes()))),
		tab:        blockid.New(),
	}
	if opts.CacheBy == ByProcess {
		d.pidToCache = map[uint16]int{}
	} else {
		d.cpuFast = caches
	}
	d.cr, _ = rd.(trace.ChunkReader)
	if d.view, _ = rd.(*trace.SliceReader); d.view == nil {
		d.scratch = make([]trace.Ref, batchRefs)
	}
	return d
}

// cacheOf returns the cache a reference goes to, or an error when the
// engines have too few caches for it. It is the decode and fused loops'
// one attribution step; the in-range per-CPU case stays small enough to
// inline into them.
func (d *decoder) cacheOf(ref *trace.Ref) (c int, err error) {
	if c = int(ref.CPU); c >= d.cpuFast {
		c, err = d.attribute(ref)
	}
	return c, err
}

// attribute is cacheOf's general case. Under ByProcess the mapping runs
// for instruction fetches too: process-to-cache assignment is by order of
// first appearance in the full stream.
func (d *decoder) attribute(ref *trace.Ref) (int, error) {
	c := int(ref.CPU)
	if d.pidToCache != nil {
		var ok bool
		if c, ok = d.pidToCache[ref.PID]; !ok {
			c = len(d.pidToCache)
			d.pidToCache[ref.PID] = c
		}
	}
	if c >= d.caches {
		return 0, fmt.Errorf("sim: reference needs cache %d but engines have %d caches", c, d.caches)
	}
	return c, nil
}

// take returns the next chunk of up to batchRefs raw references. Its error
// is io.EOF (possibly alongside a final partial chunk) when the trace ends,
// or the reader's own error after the references read before it.
func (d *decoder) take() ([]trace.Ref, error) {
	if d.view != nil {
		return d.view.View(batchRefs)
	}
	if d.cr != nil {
		return d.cr.ReadChunk(d.scratch)
	}
	refs := d.scratch[:0]
	for len(refs) < batchRefs {
		ref, err := d.rd.Next()
		if err != nil {
			return refs, err
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// decode turns one chunk of raw references into a batch in buf[:0].
func (d *decoder) decode(refs []trace.Ref, buf []decodedRef) ([]decodedRef, error) {
	batch := buf[:0]
	for i := range refs {
		ref := &refs[i]
		c, err := d.cacheOf(ref)
		if err != nil {
			return nil, err
		}
		block := ref.Addr >> d.blockShift
		var id blockid.ID
		first := false
		if ref.Kind != trace.Instr {
			var fresh bool
			id, fresh = d.tab.Intern(block)
			first = fresh && !d.include
		}
		batch = append(batch, decodedRef{block: block, id: id, cache: uint16(c), kind: ref.Kind, first: first})
	}
	return batch, nil
}

// engineSlot pairs an engine with its id-indexed fast path and its flight
// track. idx is non-nil when the engine accepted the decoder's shared
// block-id table, letting the driver skip the engine's own interning;
// otherwise the driver falls back to the address-keyed Access method (e.g.
// for an engine that already carries state from an earlier run, or a
// caller-supplied engine outside the built-in families).
type engineSlot struct {
	eng   coherence.Engine
	idx   coherence.IndexedEngine
	track uint16
}

// bindEngines offers every engine the decoder's block-id table and lays
// the slots out in stride order for workers engine groups: group w holds
// engines w, w+workers, w+2·workers, … as one contiguous run of the
// returned slice, its bound engines first. On the registry's order,
// stride groups are closer in cost than contiguous runs (DESIGN.md §9).
func bindEngines(engines []coherence.Engine, tab *blockid.Table, workers int, tr *runTrace) []engineSlot {
	slots := make([]engineSlot, 0, len(engines))
	for w := 0; w < workers; w++ {
		bound := len(slots)
		for i := w; i < len(engines); i += workers {
			s := engineSlot{eng: engines[i]}
			if tr != nil {
				s.track = tr.tracks[i]
			}
			if ie, ok := engines[i].(coherence.IndexedEngine); ok && ie.BindBlocks(tab) {
				s.idx = ie
				slots = slices.Insert(slots, bound, s)
				bound++
			} else {
				slots = append(slots, s)
			}
		}
	}
	return slots
}

// resetStats ends the warm-up window: protocol state is kept, only what
// follows is measured.
func resetStats(engines []engineSlot) {
	for _, s := range engines {
		s.eng.ResetStats()
	}
}

// runTrace holds the per-run flight-recorder wiring: the sampling
// interval, the driver track, and one track per engine in the caller's
// engine order (bindEngines copies each into its engine's slot). Phase
// ids are interned up front so the hot path never touches the recorder's
// name tables.
type runTrace struct {
	rec      *flight.Recorder
	sample   uint64
	spans    bool
	driver   uint16
	tracks   []uint16
	decodeID uint32
	simID    uint32
	fanoutID uint32
}

// newRunTrace registers the run's tracks and phases on rec. It returns
// nil when the recorder captures nothing, which keeps every traced code
// path behind one nil check.
func newRunTrace(rec *flight.Recorder, engines []coherence.Engine) *runTrace {
	if !rec.Enabled() {
		return nil
	}
	tr := &runTrace{
		rec:    rec,
		sample: uint64(rec.SampleEvery()),
		spans:  rec.SpansEnabled(),
		driver: rec.AddTrack("driver"),
		tracks: make([]uint16, len(engines)),
	}
	for i, e := range engines {
		tr.tracks[i] = rec.AddTrack(e.Name())
	}
	tr.decodeID = rec.PhaseID("decode")
	tr.simID = rec.PhaseID("simulate")
	tr.fanoutID = rec.PhaseID("fan-out")
	return tr
}

// span emits a phase span of n references starting at seq.
func span(ring *flight.Ring, track uint16, phase uint32, seq uint64, n int) {
	dur := uint32(1<<32 - 1)
	if uint64(n) < uint64(dur) {
		dur = uint32(n)
	}
	ring.Emit(flight.Event{Seq: seq, Dur: dur, Track: track, Cache: -1, Kind: flight.KindSpan, Arg: phase})
}

// engineGroup is the engines one worker applies batches to: every
// workers-th engine of the run, held as one contiguous run of the
// stride-ordered slots with the bound engines (those driven through
// AccessID) split from the unbound ones, plus the worker's single-writer
// ring and the count of references the group has applied.
type engineGroup struct {
	slots     []engineSlot // bound then unbound
	bound     []engineSlot // slots[:len(bound)]
	unbound   []engineSlot // slots[len(bound):]
	ring      *flight.Ring
	processed int
}

// apply feeds one batch to the group. It is the driver's one apply loop:
// the batch runs in plain stretches (see stretch), and a stretch ends at
// the next sample point, the warm-up boundary (after reference number
// warmup, where every engine's tallies reset) or the end of the batch.
// Without a recorder there are no sample points, so an untraced batch is
// one stretch, or two when the warm-up boundary falls inside it.
func (g *engineGroup) apply(batch []decodedRef, tr *runTrace, warmup int) {
	start := uint64(g.processed)
	// Sampled ordinals are the multiples of tr.sample: one division per
	// batch finds the first, instead of a modulo per reference. Untraced,
	// there is none.
	next := ^uint64(0)
	if tr != nil && tr.sample > 0 {
		next = (start + tr.sample - 1) / tr.sample * tr.sample
	}
	for i := 0; i < len(batch); {
		seq := uint64(g.processed)
		end := len(batch)
		if seq == next {
			next += tr.sample
			g.record(&batch[i], seq)
			end = i + 1
		} else {
			if next-seq < uint64(end-i) {
				end = i + int(next-seq)
			}
			if warmup > g.processed && warmup-g.processed < end-i {
				end = i + warmup - g.processed
			}
			g.stretch(batch[i:end])
		}
		g.processed += end - i
		i = end
		if g.processed == warmup {
			resetStats(g.slots)
		}
	}
	if tr != nil && tr.spans && len(batch) > 0 {
		for _, s := range g.slots {
			span(g.ring, s.track, tr.simID, start, len(batch))
		}
	}
}

// stretch applies a run of unsampled references. Bound engines take them
// ref-major, each data reference to every engine before the next; the
// instruction fetches among them are only counted and reach each engine
// as one AccessInstrs call at the end, which the IndexedEngine contract
// allows because they add only commutative sums and the stretch never
// crosses a warm-up reset. Unbound engines take every reference,
// instructions included, through Access, one engine at a time.
func (g *engineGroup) stretch(refs []decodedRef) {
	if len(g.bound) > 0 {
		instrs := uint64(0)
		for j := range refs {
			r := &refs[j]
			if r.kind == trace.Instr {
				instrs++
				continue
			}
			for k := range g.bound {
				g.bound[k].idx.AccessID(int(r.cache), r.kind, r.block, r.id, r.first)
			}
		}
		if instrs > 0 {
			for k := range g.bound {
				g.bound[k].idx.AccessInstrs(instrs)
			}
		}
	}
	for _, s := range g.unbound {
		for j := range refs {
			r := &refs[j]
			s.eng.Access(int(r.cache), r.kind, r.block, r.first)
		}
	}
}

// record applies one sampled reference, recording its Table 4
// classification on each engine's track plus any directory protocol
// actions the access triggered — derived by diffing the engine's own Stats
// counters around the call, so the engines themselves are untouched and
// their tallies provably unchanged.
func (g *engineGroup) record(r *decodedRef, seq uint64) {
	for _, s := range g.slots {
		st := s.eng.Stats()
		before := protocolCounts(st)
		var typ events.Type
		if s.idx != nil {
			typ = s.idx.AccessID(int(r.cache), r.kind, r.block, r.id, r.first)
		} else {
			typ = s.eng.Access(int(r.cache), r.kind, r.block, r.first)
		}
		ev := flight.Event{Seq: seq, Block: r.block, Track: s.track, Cache: int16(r.cache), Kind: flight.Kind(typ)}
		g.ring.Emit(ev)
		for k, n := range protocolCounts(st) {
			if n -= before[k]; n > 0 {
				ev.Arg, ev.Kind = uint32(n), protocolKinds[k]
				g.ring.Emit(ev)
			}
		}
	}
}

// protocolKinds are the flight kinds of the directory actions that
// protocolCounts tallies, in the same order.
var protocolKinds = [...]flight.Kind{flight.KindInval, flight.KindBroadcast, flight.KindPointerEviction, flight.KindDirOverflow}

func protocolCounts(st *coherence.Stats) [len(protocolKinds)]uint64 {
	return [...]uint64{st.DirectedInvals, st.BroadcastInvals, st.PointerEvictions, st.DirEntryEvictions}
}

// Run streams rd through every engine and returns one Result per engine,
// in order. All engines must have the same cache count, and the trace
// must fit within it. The context cancels the run between batches; with
// opts.Parallel > 1 the engines run on worker goroutines, with results
// identical to the inline path.
func Run(ctx context.Context, rd trace.Reader, engines []coherence.Engine, opts Options) ([]Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(engines) == 0 {
		return nil, fmt.Errorf("sim: no engines")
	}
	caches := engines[0].Caches()
	for _, e := range engines[1:] {
		if e.Caches() != caches {
			return nil, fmt.Errorf("sim: engine %s has %d caches, %s has %d",
				e.Name(), e.Caches(), engines[0].Name(), caches)
		}
	}
	d := newDecoder(rd, caches, opts)
	tr := newRunTrace(opts.Recorder, engines)
	workers := opts.workers(len(engines))
	slots := bindEngines(engines, d.tab, workers, tr)
	var total int
	var err error
	if tr == nil && d.cr != nil && len(slots) == 1 && slots[0].idx != nil {
		total, err = runFusedSingle(ctx, d, slots[0].idx, opts)
	} else {
		total, err = runBatched(ctx, d, slots, workers, opts, tr)
	}
	if err != nil {
		return nil, err
	}
	if total < opts.WarmupRefs {
		// The trace ended inside the warm-up window: nothing measured.
		resetStats(slots)
	}
	results := make([]Result, len(engines))
	for i, e := range engines {
		results[i] = newResult(e, e.Stats())
	}
	return results, nil
}

// newResult is engine e's result with Stats st, keeping e's cost-model
// adjustment.
func newResult(e coherence.Engine, st *coherence.Stats) Result {
	r := Result{Scheme: e.Name(), Stats: st}
	if adj, ok := e.(coherence.ModelAdjuster); ok {
		r.adjust = adj.AdjustModel
	}
	return r
}

// drive is the driver's one decode loop: it checks cancellation, takes the
// next chunk, hands it to apply with the ordinal of its first reference
// and reports progress, until the trace ends. It returns the number of
// references applied; those read before a reader error are applied first.
func drive(ctx context.Context, d *decoder, opts Options, apply func(refs []trace.Ref, seq int) error) (int, error) {
	total := 0
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		refs, rerr := d.take()
		if len(refs) > 0 {
			if err := apply(refs, total); err != nil {
				return total, err
			}
			total += len(refs)
			if opts.OnProgress != nil {
				opts.OnProgress(len(refs))
			}
		}
		if rerr == io.EOF {
			return total, nil
		}
		if rerr != nil {
			return total, rerr
		}
	}
}

// fanBatch is one reusable batch buffer. Under fan-out, pending counts the
// workers that have yet to apply it; the last one returns it to the pool.
type fanBatch struct {
	refs    []decodedRef
	pending atomic.Int32
}

// fanDepth is how many batches each worker may have queued. The fan-out
// pool holds two more — the slowest worker's current batch and the one
// being decoded — so the decoder runs as far ahead of the slowest worker
// as a queue of fanDepth allows.
const fanDepth = 4

// runBatched is the batched driver: each chunk is decoded into a pooled
// buffer and handed to every engine group, inline for one group or to one
// worker goroutine per group. Every worker sees the batches in decode
// order, so each engine's Stats are the same however many workers run.
func runBatched(ctx context.Context, d *decoder, slots []engineSlot, workers int, opts Options, tr *runTrace) (int, error) {
	groups := make([]engineGroup, workers)
	lo := 0
	for w := range groups {
		// Stride groups, as bindEngines laid them out: group w holds
		// engines w, w+workers, …, so the first len%workers groups take
		// one extra engine.
		hi := lo + (len(slots)-w+workers-1)/workers
		g := &groups[w]
		g.slots = slots[lo:hi]
		nb := 0
		for nb < len(g.slots) && g.slots[nb].idx != nil {
			nb++
		}
		g.bound, g.unbound = g.slots[:nb], g.slots[nb:]
		if tr != nil {
			// One ring per worker keeps emission single-writer.
			g.ring = tr.rec.NewRing()
		}
		lo = hi
	}
	// Fanned out, the decoder is a ring writer of its own.
	drvRing := groups[0].ring
	if tr != nil && workers > 1 {
		drvRing = tr.rec.NewRing()
	}
	pool := 1
	if workers > 1 {
		pool = fanDepth + 2
	}
	free := make(chan *fanBatch, pool)
	for len(free) < pool {
		free <- &fanBatch{refs: make([]decodedRef, 0, batchRefs)}
	}
	var queues []chan *fanBatch
	var wg sync.WaitGroup
	for w := 0; workers > 1 && w < workers; w++ {
		g := &groups[w]
		q := make(chan *fanBatch, pool)
		queues = append(queues, q)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range q {
				g.apply(b.refs, tr, opts.WarmupRefs)
				if b.pending.Add(-1) == 0 {
					free <- b
				}
			}
		}()
	}

	total, err := drive(ctx, d, opts, func(refs []trace.Ref, seq int) error {
		var b *fanBatch
		select {
		case b = <-free:
		case <-ctx.Done():
			return ctx.Err()
		}
		batch, err := d.decode(refs, b.refs)
		if err != nil {
			return err
		}
		if tr != nil && tr.spans {
			span(drvRing, tr.driver, tr.decodeID, uint64(seq), len(batch))
		}
		b.refs = batch
		if workers == 1 {
			groups[0].apply(batch, tr, opts.WarmupRefs)
			free <- b
			return nil
		}
		// Queues hold as many batches as the pool, so these sends never
		// block.
		b.pending.Store(int32(workers))
		for _, q := range queues {
			q <- b
		}
		return nil
	})
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if tr != nil && tr.spans && workers > 1 && total > 0 {
		// One span covering the whole fan-out on the driver track.
		span(drvRing, tr.driver, tr.fanoutID, 0, total)
	}
	return total, err
}

// runFusedSingle is the driver specialised for one id-indexed engine over
// a chunked reader with no recorder attached: each reference is decoded
// and applied in the same loop iteration, never materialised into a
// decodedRef batch, whose store and reload is a measurable slice of the
// single-scheme per-reference cost (DESIGN.md §9). A chunk is split once
// at the warm-up boundary.
func runFusedSingle(ctx context.Context, d *decoder, eng coherence.IndexedEngine, opts Options) (int, error) {
	return drive(ctx, d, opts, func(refs []trace.Ref, seq int) error {
		if w := opts.WarmupRefs - seq; w > 0 && w <= len(refs) {
			if err := d.applyFused(refs[:w], eng); err != nil {
				return err
			}
			eng.ResetStats()
			refs = refs[w:]
		}
		return d.applyFused(refs, eng)
	})
}

// applyFused decodes and applies one chunk for runFusedSingle.
// Instruction fetches change no protocol state and contribute only
// commutative sums, so they are counted here and flushed as one
// AccessInstrs call per chunk (chunks never span a warm-up boundary —
// runFusedSingle splits there first).
func (d *decoder) applyFused(refs []trace.Ref, eng coherence.IndexedEngine) error {
	instrs := uint64(0)
	for i := range refs {
		ref := &refs[i]
		c, err := d.cacheOf(ref)
		if err != nil {
			return err
		}
		if ref.Kind == trace.Instr {
			instrs++
			continue
		}
		block := ref.Addr >> d.blockShift
		id, fresh := d.tab.Intern(block)
		eng.AccessID(c, ref.Kind, block, id, fresh && !d.include)
	}
	if instrs > 0 {
		eng.AccessInstrs(instrs)
	}
	return nil
}

// RunSchemes builds the named engines and runs rd through them, returning
// one Result per name, in order. The results are those Run gives over the
// same engines, but RunSchemes simulates only the engines whose Stats no
// other engine of the run determines: Dir0B, Dir_iB, Berkeley, Tang and
// the snoopy invalidation schemes are priced from a simulated engine
// sharing their state-change model wherever coherence.PricedFrom allows
// (DESIGN.md §9), so a run of Dir1B through Dir16B simulates one engine.
// With an enabled Options.Recorder every engine is simulated, so each
// keeps its own flight track.
func RunSchemes(ctx context.Context, rd trace.Reader, names []string, cfg coherence.Config, opts Options) ([]Result, error) {
	engines := make([]coherence.Engine, len(names))
	for i, n := range names {
		e, err := coherence.NewByName(n, cfg)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	if opts.Recorder.Enabled() {
		return Run(ctx, rd, engines, opts)
	}
	basis := pricingBases(engines)
	simulated := make([]coherence.Engine, 0, len(engines))
	for i, e := range engines {
		if basis[i] == i {
			simulated = append(simulated, e)
		}
	}
	rs, err := Run(ctx, rd, simulated, opts)
	if err != nil || len(rs) == len(engines) {
		return rs, err
	}
	results := make([]Result, len(engines))
	for i, e := range engines {
		if basis[i] == i {
			results[i], rs = rs[0], rs[1:]
			continue
		}
		// ok is true: pricingBases picks only bases PricedFrom accepts.
		st, _ := coherence.Price(e, engines[basis[i]])
		results[i] = newResult(e, st)
	}
	return results, nil
}

// pricingBases returns, for each engine, the index of the simulated engine
// its Stats are priced from: its own index when it is simulated itself.
// An engine no other engine can price is simulated; each of the rest, in
// order, is priced from the first engine already known to be simulated
// that can price it, and is simulated when there is none.
func pricingBases(engines []coherence.Engine) []int {
	basis := make([]int, len(engines))
	for i, e := range engines {
		basis[i] = i
		for _, b := range engines {
			if coherence.PricedFrom(e, b) {
				basis[i] = -1
				break
			}
		}
	}
	for i, e := range engines {
		if basis[i] == i {
			continue
		}
		basis[i] = i
		for j, b := range engines {
			if basis[j] == j && coherence.PricedFrom(e, b) {
				basis[i] = j
				break
			}
		}
	}
	return basis
}

// Combine merges per-trace results for the same scheme into one aggregate,
// the way the paper averages event frequencies "across the three traces"
// (reference-weighted, which merging raw counts achieves).
func Combine(results []Result) (Result, error) {
	if len(results) == 0 {
		return Result{}, fmt.Errorf("sim: nothing to combine")
	}
	agg := &coherence.Stats{}
	maxCaches := 0
	for _, r := range results {
		if n := len(r.Stats.PerCache); n > maxCaches {
			maxCaches = n
		}
	}
	if maxCaches > 0 {
		agg.PerCache = make([]coherence.CacheTally, maxCaches)
	}
	for _, r := range results {
		if r.Scheme != results[0].Scheme {
			return Result{}, fmt.Errorf("sim: cannot combine %s with %s", r.Scheme, results[0].Scheme)
		}
		agg.Refs += r.Stats.Refs
		agg.Events.Merge(r.Stats.Events)
		agg.Ops.Merge(r.Stats.Ops)
		agg.Transactions += r.Stats.Transactions
		agg.InvalFanout.Add(&r.Stats.InvalFanout)
		agg.InvalEvents += r.Stats.InvalEvents
		agg.DirectedInvals += r.Stats.DirectedInvals
		agg.BroadcastInvals += r.Stats.BroadcastInvals
		agg.WastedInvals += r.Stats.WastedInvals
		agg.PointerEvictions += r.Stats.PointerEvictions
		agg.DirAccesses += r.Stats.DirAccesses
		agg.MemAccesses += r.Stats.MemAccesses
		agg.Evictions += r.Stats.Evictions
		agg.EvictionWriteBacks += r.Stats.EvictionWriteBacks
		agg.DirEntryEvictions += r.Stats.DirEntryEvictions
		agg.Snarfs += r.Stats.Snarfs
		for i, ct := range r.Stats.PerCache {
			agg.PerCache[i].Hits += ct.Hits
			agg.PerCache[i].Misses += ct.Misses
			agg.PerCache[i].Writes += ct.Writes
		}
	}
	return Result{Scheme: results[0].Scheme, Stats: agg, adjust: results[0].adjust}, nil
}

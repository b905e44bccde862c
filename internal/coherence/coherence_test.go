package coherence

import (
	"math/rand"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// feeder drives an engine the way the simulation driver does, tracking
// first references globally.
type feeder struct {
	seen map[uint64]bool
	engs []Engine
}

func newFeeder(engs ...Engine) *feeder {
	return &feeder{seen: map[uint64]bool{}, engs: engs}
}

func (f *feeder) access(c int, kind trace.Kind, block uint64) {
	first := false
	if kind != trace.Instr && !f.seen[block] {
		f.seen[block] = true
		first = true
	}
	for _, e := range f.engs {
		e.Access(c, kind, block, first)
	}
}

func (f *feeder) read(c int, b uint64)  { f.access(c, trace.Read, b) }
func (f *feeder) write(c int, b uint64) { f.access(c, trace.Write, b) }

func cfg4() Config { return Config{Caches: 4} }

// must unwraps a constructor result, failing the test via panic on error.
func must[E any](e E, err error) E {
	if err != nil {
		panic(err)
	}
	return e
}

func wantEvent(t *testing.T, st *Stats, ty events.Type, n uint64) {
	t.Helper()
	if st.Events[ty] != n {
		t.Errorf("event %v = %d, want %d", ty, st.Events[ty], n)
	}
}

func wantOp(t *testing.T, st *Stats, op bus.Op, n uint64) {
	t.Helper()
	if st.Ops[op] != n {
		t.Errorf("op %v = %d, want %d", op, st.Ops[op], n)
	}
}

// --- Config ------------------------------------------------------------------

func TestConfigValidate(t *testing.T) {
	if err := (Config{Caches: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Caches: 0},
		{Caches: 4, FiniteSets: 4},                // ways missing
		{Caches: 4, FiniteWays: 2},                // sets missing
		{Caches: 4, FiniteSets: 3, FiniteWays: 2}, // sets not power of 2
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// --- Dir0B ------------------------------------------------------------------

func TestDir0BReadSharingCostsNothingExtra(t *testing.T) {
	e := must(NewDir0B(cfg4()))
	f := newFeeder(e)
	f.read(0, 1) // first ref: free
	f.read(1, 1) // rm-blk-cln: memory supplies
	f.read(2, 1)
	f.read(0, 1) // hit
	st := e.Stats()
	wantEvent(t, st, events.ReadMissFirst, 1)
	wantEvent(t, st, events.ReadMissClean, 2)
	wantEvent(t, st, events.ReadHit, 1)
	wantOp(t, st, bus.OpMemRead, 2)
	wantOp(t, st, bus.OpInvalidate, 0)
	wantOp(t, st, bus.OpBroadcastInvalidate, 0)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDir0BWriteHitCleanSoleAvoidsBroadcast(t *testing.T) {
	// The Archibald–Baer "block clean in exactly one cache" state: a
	// write hit by the lone holder needs a directory check but no
	// broadcast.
	e := must(NewDir0B(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)  // first
	f.write(0, 1) // wh-blk-cln, sole
	st := e.Stats()
	wantEvent(t, st, events.WriteHitCleanSole, 1)
	wantOp(t, st, bus.OpDirCheck, 1)
	wantOp(t, st, bus.OpBroadcastInvalidate, 0)
	if st.InvalFanout.Total() != 1 || st.InvalFanout.Counts[0] != 1 {
		t.Errorf("fanout histogram = %v", st.InvalFanout.Counts)
	}
}

func TestDir0BWriteHitSharedBroadcasts(t *testing.T) {
	e := must(NewDir0B(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1)
	f.read(2, 1)
	f.write(0, 1) // clean in 2 other caches → broadcast invalidate
	st := e.Stats()
	wantEvent(t, st, events.WriteHitCleanShared, 1)
	wantOp(t, st, bus.OpDirCheck, 1)
	wantOp(t, st, bus.OpBroadcastInvalidate, 1)
	if st.InvalFanout.Counts[2] != 1 {
		t.Errorf("fanout histogram = %v, want one observation of 2", st.InvalFanout.Counts)
	}
	// The other copies are gone: cache 1 now misses.
	f.read(1, 1)
	wantEvent(t, st, events.ReadMissDirty, 1)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDir0BWriteMissDirtyFlushes(t *testing.T) {
	e := must(NewDir0B(cfg4()))
	f := newFeeder(e)
	f.write(0, 1) // first ref: free, dirty in cache 0
	f.write(1, 1) // wm-blk-drty: broadcast request + write-back
	st := e.Stats()
	wantEvent(t, st, events.WriteMissFirst, 1)
	wantEvent(t, st, events.WriteMissDirty, 1)
	wantOp(t, st, bus.OpWriteBack, 1)
	wantOp(t, st, bus.OpBroadcastInvalidate, 1)
	wantOp(t, st, bus.OpMemRead, 0) // data arrives with the write-back
	// Cache 0's copy was invalidated.
	f.read(0, 1)
	wantEvent(t, st, events.ReadMissDirty, 1)
}

func TestDir0BWriteHitDirtyIsFree(t *testing.T) {
	e := must(NewDir0B(cfg4()))
	f := newFeeder(e)
	f.write(0, 1)
	f.write(0, 1) // wh-blk-drty: proceeds immediately
	f.write(0, 1)
	st := e.Stats()
	wantEvent(t, st, events.WriteHitDirty, 2)
	if st.Ops.Total() != 0 {
		t.Errorf("dirty write hits emitted ops: %v", st.Ops)
	}
	if st.Transactions != 0 {
		t.Errorf("Transactions = %d, want 0", st.Transactions)
	}
}

func TestDir0BReadMissDirtyOwnerKeepsCopy(t *testing.T) {
	e := must(NewDir0B(cfg4()))
	f := newFeeder(e)
	f.write(0, 1)
	f.read(1, 1) // rm-blk-drty: flush; owner keeps a clean copy
	f.read(0, 1) // still a hit for the old owner
	st := e.Stats()
	wantEvent(t, st, events.ReadMissDirty, 1)
	wantEvent(t, st, events.ReadHit, 1)
	wantOp(t, st, bus.OpWriteBack, 1)
}

// --- Dir1NB -----------------------------------------------------------------

func TestDir1NBSingleCopyPingPong(t *testing.T) {
	e := must(NewDir1NB(cfg4()))
	f := newFeeder(e)
	f.read(0, 1) // first
	f.read(1, 1) // rm-blk-cln: invalidate 0, fetch from memory
	f.read(0, 1) // rm-blk-cln again: ping-pong
	f.read(1, 1)
	st := e.Stats()
	wantEvent(t, st, events.ReadMissClean, 3)
	wantEvent(t, st, events.ReadHit, 0)
	wantOp(t, st, bus.OpMemRead, 3)
	wantOp(t, st, bus.OpInvalidate, 3)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDir1NBWriteHitFree(t *testing.T) {
	// Exclusivity means a write hit needs no directory interaction even
	// on a clean block.
	e := must(NewDir1NB(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.write(0, 1)
	st := e.Stats()
	wantEvent(t, st, events.WriteHitCleanSole, 1)
	if st.Ops.Total() != 0 {
		t.Errorf("Dir1NB clean write hit emitted ops: %v", st.Ops)
	}
}

func TestDir1NBDirtyTransfer(t *testing.T) {
	e := must(NewDir1NB(cfg4()))
	f := newFeeder(e)
	f.write(0, 1) // first, dirty at 0
	f.read(1, 1)  // rm-blk-drty: invalidate+write-back, data to requester
	st := e.Stats()
	wantEvent(t, st, events.ReadMissDirty, 1)
	wantOp(t, st, bus.OpInvalidate, 1)
	wantOp(t, st, bus.OpWriteBack, 1)
	wantOp(t, st, bus.OpMemRead, 0)
	// Old owner lost its copy (single-copy scheme).
	f.read(0, 1)
	wantEvent(t, st, events.ReadMissClean, 1)
}

func TestDir1NBSpinLockThrashing(t *testing.T) {
	// Section 5.2: two spinners on one lock bounce the block between
	// caches; every test read misses.
	e := must(NewDir1NB(cfg4()))
	d := must(NewDir0B(cfg4()))
	f := newFeeder(e, d)
	f.read(0, 9)
	for i := 0; i < 10; i++ {
		f.read(1, 9)
		f.read(0, 9)
	}
	if miss := e.Stats().Events.ReadMisses(); miss != 20 {
		t.Errorf("Dir1NB misses = %d, want 20", miss)
	}
	if miss := d.Stats().Events.ReadMisses(); miss != 1 {
		t.Errorf("Dir0B misses = %d, want 1 (then hits)", miss)
	}
}

// --- DirnNB (full map) --------------------------------------------------------

func TestDirnNBSequentialInvalidates(t *testing.T) {
	e := must(NewDirnNB(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1)
	f.read(2, 1)
	f.read(3, 1)
	f.write(3, 1) // must invalidate 0,1,2 with three directed messages
	st := e.Stats()
	wantEvent(t, st, events.WriteHitCleanShared, 1)
	wantOp(t, st, bus.OpInvalidate, 3)
	wantOp(t, st, bus.OpBroadcastInvalidate, 0)
	if st.DirectedInvals != 3 {
		t.Errorf("DirectedInvals = %d, want 3", st.DirectedInvals)
	}
	if st.WastedInvals != 0 {
		t.Errorf("WastedInvals = %d, want 0 (full map is exact)", st.WastedInvals)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDirnNBWriteMissCleanInvalidatesAll(t *testing.T) {
	e := must(NewDirnNB(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1)
	f.write(2, 1) // wm-blk-cln: fetch + 2 invalidates
	st := e.Stats()
	wantEvent(t, st, events.WriteMissClean, 1)
	wantOp(t, st, bus.OpMemRead, 2) // cache 1's read miss + the write-miss fetch
	wantOp(t, st, bus.OpInvalidate, 2)
	if st.InvalFanout.Counts[2] != 1 {
		t.Errorf("fanout = %v", st.InvalFanout.Counts)
	}
}

func TestDirnNBDirtyRequestIsDirected(t *testing.T) {
	e := must(NewDirnNB(cfg4()))
	f := newFeeder(e)
	f.write(0, 1)
	f.read(1, 1) // directed write-back request + write-back
	st := e.Stats()
	wantOp(t, st, bus.OpInvalidate, 1) // the request message
	wantOp(t, st, bus.OpWriteBack, 1)
	wantOp(t, st, bus.OpBroadcastInvalidate, 0)
}

// --- Dir_iNB bounded copies ---------------------------------------------------

func TestDir2NBEvictsOldestCopy(t *testing.T) {
	e := must(NewDiriNB(2, cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1)
	f.read(2, 1) // pointer overflow: cache 0's copy is invalidated
	st := e.Stats()
	if st.PointerEvictions != 1 {
		t.Errorf("PointerEvictions = %d, want 1", st.PointerEvictions)
	}
	f.read(0, 1) // misses again: its copy was a pointer victim
	wantEvent(t, st, events.ReadMissClean, 3)
	wantEvent(t, st, events.ReadHit, 0)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDiriNBNeverBroadcasts(t *testing.T) {
	e := must(NewDiriNB(2, cfg4()))
	f := newFeeder(e)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		b := uint64(rng.Intn(16))
		if rng.Intn(4) == 0 {
			f.write(rng.Intn(4), b)
		} else {
			f.read(rng.Intn(4), b)
		}
	}
	if e.Stats().BroadcastInvals != 0 || e.Stats().Ops[bus.OpBroadcastInvalidate] != 0 {
		t.Fatal("Dir_iNB broadcast")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Dir_iB -------------------------------------------------------------------

func TestDir1BDirectedUntilOverflow(t *testing.T) {
	e := must(NewDiriB(1, cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.write(0, 1) // sole: dir check only
	f.read(1, 1)  // flush; 0 and 1 hold... pointer overflow sets bcast
	f.write(1, 1) // must broadcast: holders not all known
	st := e.Stats()
	if st.BroadcastInvals != 1 {
		t.Errorf("BroadcastInvals = %d, want 1", st.BroadcastInvals)
	}
	// After the write the directory tracks exactly cache 1 again.
	f.read(2, 1)  // 1 flushes... wait: block clean. 2 joins → overflow again
	f.write(2, 1) // broadcast again
	if st.BroadcastInvals != 2 {
		t.Errorf("BroadcastInvals = %d, want 2", st.BroadcastInvals)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDir2BSingleSharerDirected(t *testing.T) {
	e := must(NewDiriB(2, cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1)
	f.write(1, 1) // two pointers suffice: directed invalidate to 0
	st := e.Stats()
	wantOp(t, st, bus.OpInvalidate, 1)
	wantOp(t, st, bus.OpBroadcastInvalidate, 0)
	if st.DirectedInvals != 1 || st.BroadcastInvals != 0 {
		t.Errorf("inval split = %d/%d", st.DirectedInvals, st.BroadcastInvals)
	}
}

// --- CodedSet -----------------------------------------------------------------

func TestCodedSetWastedInvalidates(t *testing.T) {
	e := must(NewCodedSet(Config{Caches: 8}))
	f := newFeeder(e)
	f.read(0, 1) // code: 000
	f.read(3, 1) // 011 → digits 0,1 widen: superset {0,1,2,3}
	f.write(0, 1)
	st := e.Stats()
	// Targets except 0: {1,2,3}; only 3 holds a copy → 2 wasted.
	wantOp(t, st, bus.OpInvalidate, 3)
	if st.WastedInvals != 2 {
		t.Errorf("WastedInvals = %d, want 2", st.WastedInvals)
	}
	if st.BroadcastInvals != 0 {
		t.Error("coded set should not broadcast")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Tang ---------------------------------------------------------------------

func TestTangProbesScaleWithCaches(t *testing.T) {
	e := must(NewTang(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1) // one overlapped directory access = 4 probes
	st := e.Stats()
	if st.DirAccesses != 4 {
		t.Errorf("DirAccesses = %d, want 4 (duplicate-directory search)", st.DirAccesses)
	}
	// Protocol behaviour identical to the full map.
	f.write(1, 1)
	wantOp(t, st, bus.OpInvalidate, 1)
}

// --- WTI ----------------------------------------------------------------------

func TestWTIAllWritesGoThrough(t *testing.T) {
	e := must(NewWTI(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.write(0, 1)
	f.write(0, 1)
	f.write(0, 1)
	st := e.Stats()
	wantOp(t, st, bus.OpWriteThrough, 3)
	wantOp(t, st, bus.OpWriteBack, 0)
	wantOp(t, st, bus.OpDirCheck, 0)
}

func TestWTIMemoryAlwaysSupplies(t *testing.T) {
	e := must(NewWTI(cfg4()))
	f := newFeeder(e)
	f.write(0, 1) // first
	f.read(1, 1)  // classified rm-blk-drty but memory supplies
	st := e.Stats()
	wantEvent(t, st, events.ReadMissDirty, 1)
	wantOp(t, st, bus.OpMemRead, 1)
	wantOp(t, st, bus.OpWriteBack, 0)
}

func TestWTIInvalidatesOnWrite(t *testing.T) {
	e := must(NewWTI(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1)
	f.write(0, 1) // snooping invalidates cache 1's copy for free
	st := e.Stats()
	wantOp(t, st, bus.OpWriteThrough, 1)
	wantOp(t, st, bus.OpInvalidate, 0)
	f.read(1, 1)
	if st.Events.ReadMisses() != 2 {
		t.Errorf("read misses = %d, want 2 (copy was invalidated)", st.Events.ReadMisses())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The paper's key structural observation: WTI and Dir0B have identical
// event frequencies because they share a state-change model.
func TestWTIAndDir0BEventFrequenciesIdentical(t *testing.T) {
	wti := must(NewWTI(cfg4()))
	dir0b := must(NewDir0B(cfg4()))
	f := newFeeder(wti, dir0b)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		c := rng.Intn(4)
		b := uint64(rng.Intn(64))
		switch rng.Intn(4) {
		case 0:
			f.write(c, b)
		case 1:
			f.access(c, trace.Instr, b+1000)
		default:
			f.read(c, b)
		}
	}
	if wti.Stats().Events != dir0b.Stats().Events {
		t.Fatalf("event counts differ:\nWTI   %v\nDir0B %v",
			wti.Stats().Events, dir0b.Stats().Events)
	}
}

// --- Dragon -------------------------------------------------------------------

func TestDragonNeverInvalidates(t *testing.T) {
	e := must(NewDragon(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1)
	f.write(0, 1) // update, not invalidate
	f.read(1, 1)  // still a hit
	st := e.Stats()
	wantEvent(t, st, events.WriteHitUpdate, 1)
	wantOp(t, st, bus.OpWriteUpdate, 1)
	wantEvent(t, st, events.ReadHit, 1)
	wantOp(t, st, bus.OpInvalidate, 0)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDragonLocalWriteFree(t *testing.T) {
	e := must(NewDragon(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.write(0, 1) // sole copy: no bus traffic
	st := e.Stats()
	wantEvent(t, st, events.WriteHitLocal, 1)
	if st.Ops.Total() != 0 {
		t.Errorf("local write emitted ops: %v", st.Ops)
	}
}

func TestDragonCacheSuppliesStaleMemory(t *testing.T) {
	e := must(NewDragon(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.write(0, 1) // memory now stale
	f.read(1, 1)  // supplied by cache 0
	st := e.Stats()
	wantEvent(t, st, events.ReadMissDirty, 1)
	wantOp(t, st, bus.OpCacheRead, 1)
	wantOp(t, st, bus.OpMemRead, 0)
}

func TestDragonWriteMissUpdatesOthers(t *testing.T) {
	e := must(NewDragon(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.write(1, 1) // miss: fetch from memory, then distribute the word
	st := e.Stats()
	wantEvent(t, st, events.WriteMissClean, 1)
	wantOp(t, st, bus.OpMemRead, 1)
	wantOp(t, st, bus.OpWriteUpdate, 1)
	f.read(0, 1) // cache 0 still current
	wantEvent(t, st, events.ReadHit, 1)
}

func TestDragonInfiniteCacheMissesOnlyOnce(t *testing.T) {
	e := must(NewDragon(cfg4()))
	f := newFeeder(e)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		c := rng.Intn(4)
		b := uint64(rng.Intn(32))
		if rng.Intn(5) == 0 {
			f.write(c, b)
		} else {
			f.read(c, b)
		}
	}
	st := e.Stats()
	// Each (cache, block) pair can miss at most once: ≤ 4×32 non-first
	// misses plus 32 first refs.
	misses := st.Events.ReadMisses() + st.Events.WriteMisses()
	if misses > 4*32 {
		t.Errorf("Dragon misses = %d, want ≤ 128", misses)
	}
}

// --- Berkeley -----------------------------------------------------------------

func TestBerkeleyMatchesDir0BOpsWithFreeDirectory(t *testing.T) {
	brk := must(NewBerkeley(cfg4()))
	d0b := must(NewDir0B(cfg4()))
	f := newFeeder(brk, d0b)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		c := rng.Intn(4)
		b := uint64(rng.Intn(32))
		if rng.Intn(3) == 0 {
			f.write(c, b)
		} else {
			f.read(c, b)
		}
	}
	if brk.Stats().Ops != d0b.Stats().Ops {
		t.Fatal("Berkeley op counts must equal Dir0B's")
	}
	adj, ok := Engine(brk).(ModelAdjuster)
	if !ok {
		t.Fatal("Berkeley must implement ModelAdjuster")
	}
	m := adj.AdjustModel(bus.Pipelined())
	if m.Cost[bus.OpDirCheck] != 0 {
		t.Fatal("Berkeley model must price directory checks at zero")
	}
	berkCycles := m.Cycles(brk.Stats().Ops)
	dirCycles := bus.Pipelined().Cycles(d0b.Stats().Ops)
	if berkCycles >= dirCycles {
		t.Errorf("Berkeley cycles %v should be below Dir0B %v", berkCycles, dirCycles)
	}
	if brk.Name() != "Berkeley" {
		t.Errorf("Name = %q", brk.Name())
	}
}

// --- Transactions and first refs ----------------------------------------------

func TestFirstReferencesAreFree(t *testing.T) {
	for _, e := range allEngines(t, cfg4()) {
		f := newFeeder(e)
		for b := uint64(0); b < 50; b++ {
			if b%2 == 0 {
				f.read(int(b%4), b)
			} else {
				f.write(int(b%4), b)
			}
		}
		st := e.Stats()
		if st.Ops.Total() != 0 {
			t.Errorf("%s: first references emitted ops %v", e.Name(), st.Ops)
		}
		if st.Transactions != 0 {
			t.Errorf("%s: Transactions = %d", e.Name(), st.Transactions)
		}
		wantEvent(t, st, events.ReadMissFirst, 25)
		wantEvent(t, st, events.WriteMissFirst, 25)
	}
}

func TestTransactionsCountBusUses(t *testing.T) {
	e := must(NewDir0B(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)  // free (first)
	f.read(1, 1)  // 1 txn (mem read)
	f.write(1, 1) // 1 txn (dir check + broadcast)
	f.write(1, 1) // free (dirty hit)
	st := e.Stats()
	if st.Transactions != 2 {
		t.Errorf("Transactions = %d, want 2", st.Transactions)
	}
}

func TestCyclesHelpers(t *testing.T) {
	e := must(NewDir0B(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)
	f.read(1, 1) // mem read: 5 cycles pipelined
	st := e.Stats()
	m := bus.Pipelined()
	if got := st.CyclesPerRef(m); got != 2.5 {
		t.Errorf("CyclesPerRef = %v, want 2.5", got)
	}
	if got := st.CyclesPerTransaction(m); got != 5 {
		t.Errorf("CyclesPerTransaction = %v, want 5", got)
	}
	// q=1 adds one cycle per transaction: (5+1)/2 refs.
	if got := st.CyclesPerRefWithOverhead(m, 1); got != 3 {
		t.Errorf("CyclesPerRefWithOverhead = %v, want 3", got)
	}
	var zero Stats
	if zero.CyclesPerRef(m) != 0 || zero.CyclesPerTransaction(m) != 0 || zero.CyclesPerRefWithOverhead(m, 1) != 0 {
		t.Error("zero stats should price to zero")
	}
}

// --- Instr handling -------------------------------------------------------------

func TestInstructionsCauseNoTraffic(t *testing.T) {
	engines := allEngines(t, cfg4())
	f := newFeeder(engines...)
	for i := 0; i < 100; i++ {
		f.access(i%4, trace.Instr, uint64(i))
	}
	for _, e := range engines {
		st := e.Stats()
		if st.Ops.Total() != 0 {
			t.Errorf("%s: instructions emitted ops", e.Name())
		}
		wantEvent(t, st, events.Instr, 100)
		if st.Refs != 100 {
			t.Errorf("%s: Refs = %d", e.Name(), st.Refs)
		}
	}
}

// TestAccessPanicsOnBadCache checks the cache-range guard of every
// engine, through both the interning and the pre-interned entry points.
func TestAccessPanicsOnBadCache(t *testing.T) {
	cfg := cfg4()
	for _, e := range allEngines(t, cfg) {
		ie := e.(IndexedEngine)
		for _, c := range []int{-1, cfg.Caches} {
			for _, via := range []struct {
				name   string
				access func()
			}{
				{"Access", func() { e.Access(c, trace.Read, 1, true) }},
				{"AccessID", func() { ie.AccessID(c, trace.Read, 1, 0, true) }},
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: %s(cache=%d) did not panic", e.Name(), via.name, c)
						}
					}()
					via.access()
				}()
			}
		}
	}
}

// allEngines builds one of every scheme NewByName lists for cross-cutting
// tests.
func allEngines(t *testing.T, cfg Config) []Engine {
	t.Helper()
	var out []Engine
	for _, name := range EngineNames() {
		e, err := NewByName(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, e)
	}
	return out
}

func TestNewByName(t *testing.T) {
	cfg := cfg4()
	cases := map[string]string{
		"dir1nb":    "Dir1NB",
		"DIR4NB":    "Dir4NB",
		"dirnnb":    "DirnNB",
		"dir0b":     "Dir0B",
		"dir3b":     "Dir3B",
		"codedset":  "CodedSet",
		"tang":      "Tang",
		"wti":       "WTI",
		"dragon":    "Dragon",
		"berkeley":  "Berkeley",
		"mesi":      "MESI",
		"writeonce": "WriteOnce",
		"firefly":   "Firefly",
	}
	for in, want := range cases {
		e, err := NewByName(in, cfg)
		if err != nil {
			t.Errorf("NewByName(%q): %v", in, err)
			continue
		}
		if e.Name() != want {
			t.Errorf("NewByName(%q).Name() = %q, want %q", in, e.Name(), want)
		}
		if e.Caches() != 4 {
			t.Errorf("%s Caches = %d", want, e.Caches())
		}
	}
	for _, bad := range []string{"", "mosei", "dir0nb", "dirxb", "dir-1b"} {
		if _, err := NewByName(bad, cfg); err == nil {
			t.Errorf("NewByName(%q) accepted", bad)
		}
	}
}

func TestSection3Engines(t *testing.T) {
	engs, err := Section3Engines(cfg4())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Dir1NB", "WTI", "Dir0B", "Dragon"}
	if len(engs) != len(want) {
		t.Fatalf("got %d engines", len(engs))
	}
	for i, e := range engs {
		if e.Name() != want[i] {
			t.Errorf("engine %d = %s, want %s", i, e.Name(), want[i])
		}
	}
}

func TestPerCacheTallies(t *testing.T) {
	e := must(NewDir0B(cfg4()))
	f := newFeeder(e)
	f.read(0, 1)  // first ref: miss for cache 0
	f.read(1, 1)  // miss for cache 1
	f.read(0, 1)  // hit for cache 0
	f.write(2, 1) // miss (write) for cache 2
	f.access(3, trace.Instr, 99)
	st := e.Stats()
	if len(st.PerCache) != 4 {
		t.Fatalf("PerCache len = %d", len(st.PerCache))
	}
	want := []CacheTally{
		{Hits: 1, Misses: 1},
		{Misses: 1},
		{Misses: 1, Writes: 1},
		{},
	}
	for i, w := range want {
		if st.PerCache[i] != w {
			t.Errorf("cache %d tally = %+v, want %+v", i, st.PerCache[i], w)
		}
	}
	// Aggregate consistency: per-cache sums match the event totals.
	var hits, misses uint64
	for _, ct := range st.PerCache {
		hits += ct.Hits
		misses += ct.Misses
	}
	ev := st.Events
	if hits != ev[events.ReadHit]+ev.WriteHits() {
		t.Errorf("per-cache hits %d != event hits", hits)
	}
	if misses != ev.ReadMisses()+ev.WriteMisses()+ev[events.ReadMissFirst]+ev[events.WriteMissFirst] {
		t.Errorf("per-cache misses %d != event misses", misses)
	}
}

func TestMissImbalance(t *testing.T) {
	var st Stats
	if st.MissImbalance() != 0 {
		t.Error("empty stats should report 0")
	}
	st.PerCache = []CacheTally{{Misses: 30}, {Misses: 10}, {Misses: 0}, {Misses: 0}}
	// max 30, mean 10 → 3.
	if got := st.MissImbalance(); got != 3 {
		t.Errorf("MissImbalance = %v, want 3", got)
	}
}

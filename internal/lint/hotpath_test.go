package lint

import (
	"strings"
	"testing"
)

// Tests of the three hot-path table entries: obsring, enginepurity and
// mapstate.

var obsRingEmitAppend = fixture{name: "obsring-emit-append", path: "dirsim/internal/flight", src: `package fix
type Event struct{ Seq uint64 }
type Ring struct {
	buf []Event
	n   uint64
	log []Event
}
func (r *Ring) Emit(e Event) {
	r.log = append(r.log, e) // allocation: grows on the hot path
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
}
`}

func TestObsRingRuleFlagsHotPathAllocation(t *testing.T) {
	fs := lintFixture(t, obsRingEmitAppend, ObsRing)
	wantFindings(t, fs, ObsRing, 1)
	if !strings.Contains(fs[0].Msg, "append") || !strings.Contains(fs[0].Msg, "Emit") {
		t.Errorf("finding should name append and Emit, got %v", fs[0])
	}
}

// Observe itself is clean, but a helper it calls allocates — the rule
// must walk the call graph.
var obsRingObserveGrow = fixture{name: "obsring-observe-grow", path: "dirsim/internal/obs", src: `package fix
type Ring struct {
	buf []uint64
	n   uint64
}
func (r *Ring) grow() {
	r.buf = make([]uint64, 2*len(r.buf))
}
func (r *Ring) Observe(v uint64) {
	if r.n == uint64(len(r.buf)) {
		r.grow()
	}
	r.buf[r.n%uint64(len(r.buf))] = v
	r.n++
}
`}

func TestObsRingRuleFollowsSamePackageCallees(t *testing.T) {
	fs := lintFixture(t, obsRingObserveGrow, ObsRing)
	wantFindings(t, fs, ObsRing, 1)
	if !strings.Contains(fs[0].Msg, "grow") {
		t.Errorf("finding should name the transitive callee grow, got %v", fs[0])
	}
}

var obsRingAllocKinds = fixture{name: "obsring-alloc-kinds", path: "dirsim/internal/obs", src: `package fix
type row struct{ v uint64 }
type H struct {
	rows  []row
	byKey map[string]uint64
	hook  func()
}
func (h *H) Observe(v uint64) {
	h.rows = []row{{v}}           // slice literal
	h.byKey = map[string]uint64{} // map literal
	p := &row{v}                  // &composite literal
	_ = p
	h.hook = func() {}            // closure
	_ = new(row)                  // new
}
`}

func TestObsRingRuleAllocationKinds(t *testing.T) {
	wantFindings(t, lintFixture(t, obsRingAllocKinds, ObsRing), ObsRing, 5)
}

// Span Start/Finish are per-request hot paths: an allocating Finish would
// charge every fabric span a heap object.
var obsRingSpanFinish = fixture{name: "obsring-span-finish", path: "dirsim/internal/otrace", src: `package fix
type Span struct{ Name string }
type Store struct {
	buf []Span
	n   uint64
}
type Active struct{ st *Store; s Span }
func (a Active) Finish() {
	a.st.buf = append(a.st.buf, a.s) // allocation: ring must be preallocated
	a.st.n++
}
`}

func TestObsRingRuleGuardsOtraceSpans(t *testing.T) {
	fs := lintFixture(t, obsRingSpanFinish, ObsRing)
	wantFindings(t, fs, ObsRing, 1)
	if !strings.Contains(fs[0].Msg, "Finish") {
		t.Errorf("finding should name Finish, got %v", fs[0])
	}
}

// obsRingEmitLog allocates in a method named Emit; it is placed in every
// guarded package and outside them.
var obsRingEmitLog = fixture{name: "obsring-emit-log", path: "dirsim/internal/flight", src: `package fix
type Ring struct{ log []uint64 }
func (r *Ring) Emit(v uint64) { r.log = append(r.log, v) }
`}

func TestObsRingRuleRootsArePerPackage(t *testing.T) {
	// Emit is a hot-path root in internal/flight only; the same name in
	// another guarded package is not a root there.
	wantFindings(t, lintFixture(t, obsRingEmitLog.at("dirsim/internal/obs"), ObsRing), ObsRing, 0)
	wantFindings(t, lintFixture(t, obsRingEmitLog.at("dirsim/internal/otrace"), ObsRing), ObsRing, 0)
	wantFindings(t, lintFixture(t, obsRingEmitLog, ObsRing), ObsRing, 1)
}

// Cold-path allocation (setup, export) and hot paths that only store are
// fine.
var obsRingClean = fixture{name: "obsring-clean", path: "dirsim/internal/flight", src: `package fix
type Event struct{ Seq uint64 }
type Ring struct {
	buf []Event
	n   uint64
}
func New(capacity int) *Ring {
	return &Ring{buf: make([]Event, capacity)}
}
func (r *Ring) Emit(e Event) {
	r.buf[r.n&uint64(len(r.buf)-1)] = e
	r.n++
}
func (r *Ring) Events() []Event {
	return append([]Event(nil), r.buf[:r.n]...)
}
`}

func TestObsRingRuleSilent(t *testing.T) {
	wantFindings(t, lintFixture(t, obsRingClean, ObsRing), ObsRing, 0)
	// Same shape outside the guarded packages: silent.
	wantFindings(t, lintFixture(t, obsRingEmitLog.at("dirsim/internal/sim"), ObsRing), ObsRing, 0)
	wantFindings(t, lintFixture(t, obsRingEmitLog.at("dirsim/cmd/fix"), ObsRing), ObsRing, 0)
}

// The engine fixtures live at dirsim/internal/coherence because the
// engine roots anchor on the Engine interface declared there.

var enginePurityDirty = fixture{name: "enginepurity-dirty", path: "dirsim/internal/coherence", src: `package coherence
import "time"
type Engine interface {
	Access(c int, block uint64) int
}
type Dirty struct{ seen map[uint64][]int }
func (e *Dirty) Access(c int, block uint64) int {
	e.seen[block] = append([]int(nil), c)
	_ = time.Now()
	n := 0
	for range e.seen {
		n++
	}
	return e.helper(n)
}
func (e *Dirty) helper(n int) int {
	s := make([]int, n)
	return len(s)
}
`}

func TestEnginePurityFlagsDirtyAccessPath(t *testing.T) {
	fs := lintFixture(t, enginePurityDirty, EnginePurity)
	if len(fs) != 4 {
		t.Fatalf("got %d findings, want 4 (fresh append, clock, map range, helper make): %v", len(fs), fs)
	}
	for _, f := range fs {
		if !strings.Contains(f.Msg, "Dirty's Access hot path") {
			t.Errorf("finding does not name the engine: %v", f)
		}
	}
}

var enginePurityAmortized = fixture{name: "enginepurity-amortized", path: "dirsim/internal/coherence", src: `package coherence
type Engine interface {
	Access(c int, block uint64) int
}
type state struct{ n int }
type Clean struct {
	blocks map[uint64]*state
	hits   []uint64
}
func (e *Clean) Access(c int, block uint64) int {
	bs := e.ensure(block)
	bs.n++
	e.hits = append(e.hits, block)
	return bs.n
}
func (e *Clean) ensure(block uint64) *state {
	if bs, ok := e.blocks[block]; ok {
		return bs
	}
	bs := &state{}
	e.blocks[block] = bs
	return bs
}
`}

func TestEnginePurityAllowsAmortizedGrowth(t *testing.T) {
	fs := lintFixture(t, enginePurityAmortized, EnginePurity)
	if len(fs) != 0 {
		t.Fatalf("first-touch/amortized growth should pass: %v", fs)
	}
}

var enginePuritySpawn = fixture{name: "enginepurity-spawn", path: "dirsim/internal/coherence", src: `package coherence
type Engine interface {
	Access(c int, block uint64) int
}
type Spawny struct{ sink chan int }
func (e *Spawny) Access(c int, block uint64) int {
	go func() { e.sink <- c }()
	return c
}
`}

func TestEnginePurityFlagsClosureAndSpawn(t *testing.T) {
	fs := lintFixture(t, enginePuritySpawn, EnginePurity)
	var kinds []string
	for _, f := range fs {
		kinds = append(kinds, f.Msg)
	}
	joined := strings.Join(kinds, "\n")
	if !strings.Contains(joined, "goroutine spawned") {
		t.Errorf("goroutine on Access path not flagged: %v", fs)
	}
	if !strings.Contains(joined, "closure") {
		t.Errorf("closure allocation not flagged: %v", fs)
	}
}

// An allocation inside an interface implementation the engine calls
// must be attributed to the engine's hot path.
var enginePurityStoreDispatch = fixture{name: "enginepurity-store-dispatch", path: "dirsim/internal/coherence", src: `package coherence
type Engine interface {
	Access(c int, block uint64) int
}
type Store interface{ Targets(block uint64) []int }
type BadStore struct{}
func (BadStore) Targets(block uint64) []int { return make([]int, 4) }
type Indirect struct{ store Store }
func (e *Indirect) Access(c int, block uint64) int {
	return len(e.store.Targets(block))
}
`}

func TestEnginePurityResolvesStoreDispatch(t *testing.T) {
	fs := lintFixture(t, enginePurityStoreDispatch, EnginePurity)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "make") {
		t.Fatalf("store allocation behind interface dispatch not attributed: %v", fs)
	}
}

var mapStateFields = fixture{name: "mapstate-fields", path: "dirsim/internal/coherence", src: `package coherence
type Engine interface {
	Access(c int, block uint64) int
}
type Mappy struct {
	state map[uint64]int
	dirty map[uint64]bool
}
func (e *Mappy) Access(c int, block uint64) int {
	e.state[block]++
	return e.helper(block)
}
func (e *Mappy) helper(block uint64) int {
	if e.dirty[block] {
		return 1
	}
	return 0
}
`}

func TestMapStateFlagsAddressKeyedFields(t *testing.T) {
	fs := lintFixture(t, mapStateFields, MapState)
	if len(fs) != 2 {
		t.Fatalf("got %d findings, want 2 (state, dirty): %v", len(fs), fs)
	}
	for _, f := range fs {
		if !strings.Contains(f.Msg, "Mappy's Access hot path") {
			t.Errorf("finding does not name the engine: %v", f)
		}
		if !strings.Contains(f.Msg, "blockid.ID") {
			t.Errorf("finding does not point at the interned-id fix: %v", f)
		}
	}
}

var mapStateClean = fixture{name: "mapstate-clean", path: "dirsim/internal/coherence", src: `package coherence
type Engine interface {
	Access(c int, block uint64) int
}
type Clean struct {
	sharers []uint64
	// Address-keyed, but only touched by the cold reporting path.
	report map[uint64]int
}
func (e *Clean) Access(c int, block uint64) int {
	// A local map[uint64] is scratch, not per-block state.
	scratch := map[uint64]int{block: c}
	if int(block) < len(e.sharers) {
		e.sharers[block]++
	}
	return scratch[block]
}
func (e *Clean) Report() map[uint64]int { return e.report }
`}

func TestMapStateAllowsArraysLocalsAndColdPaths(t *testing.T) {
	fs := lintFixture(t, mapStateClean, MapState)
	if len(fs) != 0 {
		t.Fatalf("array state, local maps and cold paths should pass: %v", fs)
	}
}

var mapStateOtherKeys = fixture{name: "mapstate-other-keys", path: "dirsim/internal/coherence", src: `package coherence
type Engine interface {
	Access(c int, block uint64) int
}
type Keyed struct {
	byName map[string]int
	byPid  map[uint16]int
}
func (e *Keyed) Access(c int, block uint64) int {
	return e.byName["x"] + e.byPid[uint16(c)]
}
`}

func TestMapStateIgnoresOtherKeyTypes(t *testing.T) {
	fs := lintFixture(t, mapStateOtherKeys, MapState)
	if len(fs) != 0 {
		t.Fatalf("only uint64-keyed state is per-block state: %v", fs)
	}
}

// The sim driver calls AccessID and AccessInstrs directly, so both are
// roots even when Access does not reach them.
var enginePurityIndexed = fixture{name: "enginepurity-indexed", path: "dirsim/internal/coherence", src: `package coherence
type Engine interface {
	Access(c int, block uint64) int
}
type IndexedEngine interface {
	Engine
	AccessID(c int, block uint64, id int) int
	AccessInstrs(n uint64)
}
type Fast struct {
	hits  []int
	byPid map[uint64]int
}
func (e *Fast) Access(c int, block uint64) int { return c }
func (e *Fast) AccessID(c int, block uint64, id int) int {
	e.hits = make([]int, id)
	return e.byPid[block]
}
func (e *Fast) AccessInstrs(n uint64) { e.hits = []int{int(n)} }
`}

func TestHotPathCoversIndexedEngineMethods(t *testing.T) {
	fs := lintFixture(t, enginePurityIndexed, EnginePurity)
	wantFindings(t, fs, EnginePurity, 2)
	if !strings.Contains(fs[0].Msg, "Fast's AccessID hot path") || !strings.Contains(fs[1].Msg, "Fast's AccessInstrs hot path") {
		t.Errorf("findings should name the indexed entry points: %v", fs)
	}
	fs = lintFixture(t, enginePurityIndexed, MapState)
	wantFindings(t, fs, MapState, 1)
	if !strings.Contains(fs[0].Msg, "field byPid") {
		t.Errorf("finding should name byPid: %v", fs)
	}
}

// An engine family that embeds a shared core owns the core's promoted
// methods as roots, and the core helpers its own methods call are on its
// hot path, so allocation inside the core is reported against the
// embedding type.
var enginePurityEmbeddedCore = fixture{name: "enginepurity-embedded-core", path: "dirsim/internal/coherence", src: `package coherence
type Engine interface {
	Access(c int, block uint64) int
}
type IndexedEngine interface {
	Engine
	AccessID(c int, block uint64, id int) int
	AccessInstrs(n uint64)
}
type core struct{ refs []uint64 }
func (k *core) AccessInstrs(n uint64) { k.refs = []uint64{n} }
func (k *core) begin(c int) { k.refs = make([]uint64, c) }
type Family struct{ core }
func (e *Family) Access(c int, block uint64) int { return c }
func (e *Family) AccessID(c int, block uint64, id int) int {
	e.begin(c)
	return id
}
`}

func TestEnginePurityFollowsEmbeddedCore(t *testing.T) {
	fs := lintFixture(t, enginePurityEmbeddedCore, EnginePurity)
	wantFindings(t, fs, EnginePurity, 2)
	if !strings.Contains(fs[0].Msg, "inside AccessInstrs, on Family's AccessInstrs hot path") ||
		!strings.Contains(fs[1].Msg, "inside begin, on Family's AccessID hot path") {
		t.Errorf("findings should name the embedding type's entry points: %v", fs)
	}
}

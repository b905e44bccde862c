package sim

import (
	"context"
	"math"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/coherence"
	"dirsim/internal/events"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

func must[E any](e E, err error) E {
	if err != nil {
		panic(err)
	}
	return e
}

func cfg4() coherence.Config { return coherence.Config{Caches: 4} }

func smallTrace() trace.Slice {
	// Two CPUs sharing block 0x1, private blocks 0x2, 0x3.
	return trace.Slice{
		{CPU: 0, PID: 1, Kind: trace.Read, Addr: 0x10},
		{CPU: 1, PID: 2, Kind: trace.Read, Addr: 0x10},
		{CPU: 0, PID: 1, Kind: trace.Write, Addr: 0x10},
		{CPU: 1, PID: 2, Kind: trace.Read, Addr: 0x10},
		{CPU: 0, PID: 1, Kind: trace.Instr, Addr: 0x1000},
		{CPU: 1, PID: 2, Kind: trace.Write, Addr: 0x30},
	}
}

func TestRunBasic(t *testing.T) {
	engines := []coherence.Engine{
		must(coherence.NewDir0B(cfg4())),
		must(coherence.NewDragon(cfg4())),
	}
	rs, err := Run(context.Background(), trace.NewSliceReader(smallTrace()), engines, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Scheme != "Dir0B" || rs[1].Scheme != "Dragon" {
		t.Fatalf("results = %+v", rs)
	}
	st := rs[0].Stats
	if st.Refs != 6 {
		t.Fatalf("Refs = %d", st.Refs)
	}
	// First refs to 0x1 (read) and 0x3 (write) excluded; the rest priced.
	if st.Events[events.ReadMissFirst] != 1 || st.Events[events.WriteMissFirst] != 1 {
		t.Fatalf("first-ref events wrong: %v", st.Events)
	}
	if st.Events[events.ReadMissClean] != 1 { // CPU1's first read of shared block
		t.Fatalf("rm-blk-cln = %d", st.Events[events.ReadMissClean])
	}
	if st.Events[events.ReadMissDirty] != 1 { // CPU1 rereads after CPU0's write
		t.Fatalf("rm-blk-drty = %d", st.Events[events.ReadMissDirty])
	}
	if st.Events[events.WriteHitCleanShared] != 1 {
		t.Fatalf("wh-blk-cln-shared = %d", st.Events[events.WriteHitCleanShared])
	}
}

func TestRunValidatesOptionsAndEngines(t *testing.T) {
	e := must(coherence.NewDir0B(cfg4()))
	if _, err := Run(context.Background(), trace.NewSliceReader(nil), nil, Options{}); err == nil {
		t.Error("empty engine list accepted")
	}
	if _, err := Run(context.Background(), trace.NewSliceReader(nil), []coherence.Engine{e}, Options{BlockBytes: 12}); err == nil {
		t.Error("bad block size accepted")
	}
	if _, err := Run(context.Background(), trace.NewSliceReader(nil), []coherence.Engine{e}, Options{CacheBy: CacheBy(9)}); err == nil {
		t.Error("bad CacheBy accepted")
	}
	mixed := []coherence.Engine{e, must(coherence.NewDir0B(coherence.Config{Caches: 8}))}
	if _, err := Run(context.Background(), trace.NewSliceReader(nil), mixed, Options{}); err == nil {
		t.Error("mismatched cache counts accepted")
	}
	tooSmall := []coherence.Engine{must(coherence.NewDir0B(coherence.Config{Caches: 1}))}
	tr := trace.Slice{{CPU: 3, Kind: trace.Read, Addr: 1}}
	if _, err := Run(context.Background(), trace.NewSliceReader(tr), tooSmall, Options{}); err == nil {
		t.Error("out-of-range CPU accepted")
	}
}

func TestRunByProcessMapsDensely(t *testing.T) {
	// Same process migrating across CPUs must stay in one cache under
	// ByProcess, so no sharing traffic arises.
	tr := trace.Slice{
		{CPU: 0, PID: 7, Kind: trace.Read, Addr: 0x10},
		{CPU: 1, PID: 7, Kind: trace.Read, Addr: 0x10},
		{CPU: 2, PID: 7, Kind: trace.Write, Addr: 0x10},
	}
	byCPU, err := Run(context.Background(), trace.NewSliceReader(tr),
		[]coherence.Engine{must(coherence.NewDir0B(cfg4()))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byProc, err := Run(context.Background(), trace.NewSliceReader(tr),
		[]coherence.Engine{must(coherence.NewDir0B(cfg4()))}, Options{CacheBy: ByProcess})
	if err != nil {
		t.Fatal(err)
	}
	if byProc[0].Stats.Events.ReadMisses() != 0 {
		t.Errorf("ByProcess misses = %d, want 0", byProc[0].Stats.Events.ReadMisses())
	}
	if byCPU[0].Stats.Events.ReadMisses() == 0 {
		t.Error("ByCPU should see migration-induced misses")
	}
}

func TestIncludeFirstRefCosts(t *testing.T) {
	tr := trace.Slice{{CPU: 0, Kind: trace.Read, Addr: 0x10}}
	excl, _ := Run(context.Background(), trace.NewSliceReader(tr),
		[]coherence.Engine{must(coherence.NewDir0B(cfg4()))}, Options{})
	incl, _ := Run(context.Background(), trace.NewSliceReader(tr),
		[]coherence.Engine{must(coherence.NewDir0B(cfg4()))}, Options{IncludeFirstRefCosts: true})
	if excl[0].Stats.Ops.Total() != 0 {
		t.Error("excluded first ref emitted ops")
	}
	if incl[0].Stats.Ops[bus.OpMemRead] != 1 {
		t.Error("included first ref did not fetch")
	}
	if incl[0].Stats.Events[events.ReadMissUncached] != 1 {
		t.Errorf("included first ref classified as %v", incl[0].Stats.Events)
	}
}

func TestRunSchemes(t *testing.T) {
	rs, err := RunSchemes(context.Background(), trace.NewSliceReader(smallTrace()),
		[]string{"dir1nb", "wti"}, cfg4(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Scheme != "Dir1NB" || rs[1].Scheme != "WTI" {
		t.Fatalf("results = %v", []string{rs[0].Scheme, rs[1].Scheme})
	}
	if _, err := RunSchemes(context.Background(), trace.NewSliceReader(nil), []string{"nope"}, cfg4(), Options{}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestCombine(t *testing.T) {
	mk := func() Result {
		rs, err := Run(context.Background(), trace.NewSliceReader(smallTrace()),
			[]coherence.Engine{must(coherence.NewDir0B(cfg4()))}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rs[0]
	}
	a, b := mk(), mk()
	agg, err := Combine([]Result{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Stats.Refs != a.Stats.Refs*2 {
		t.Errorf("combined Refs = %d", agg.Stats.Refs)
	}
	if agg.Stats.Ops != mergeOps(a.Stats.Ops, b.Stats.Ops) {
		t.Error("combined ops wrong")
	}
	// Frequencies are preserved under equal-weight merge.
	if math.Abs(agg.EventFrequency(events.ReadHit)-a.EventFrequency(events.ReadHit)) > 1e-12 {
		t.Error("frequency changed under combine")
	}
	if _, err := Combine(nil); err == nil {
		t.Error("empty combine accepted")
	}
	other, _ := Run(context.Background(), trace.NewSliceReader(smallTrace()),
		[]coherence.Engine{must(coherence.NewDragon(cfg4()))}, Options{})
	if _, err := Combine([]Result{a, other[0]}); err == nil {
		t.Error("cross-scheme combine accepted")
	}
}

func mergeOps(a, b bus.OpCounts) bus.OpCounts {
	a.Merge(b)
	return a
}

func TestResultModelAdjustment(t *testing.T) {
	rs, err := Run(context.Background(), trace.NewSliceReader(smallTrace()),
		[]coherence.Engine{must(coherence.NewBerkeley(cfg4()))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := rs[0].Model(bus.Pipelined())
	if m.Cost[bus.OpDirCheck] != 0 {
		t.Error("Berkeley result did not adjust the model")
	}
}

// The paper's two accounting paths must agree: pricing measured events by
// the per-event operation tables reproduces the engines' exact operation
// tallies on real workloads.
func TestAccountingPathsAgreeOnGeneratedTraces(t *testing.T) {
	for _, cfgGen := range tracegen.Presets(60000) {
		gen := must(tracegen.New(cfgGen))
		engines, err := coherence.Section3Engines(cfg4())
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, must(coherence.NewBerkeley(cfg4())))
		rs, err := Run(context.Background(), gen, engines, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if err := VerifyAccounting(r); err != nil {
				t.Errorf("%s on %s: %v", r.Scheme, cfgGen.Name, err)
			}
		}
	}
}

func TestVerifyAccountingSkipsDataDependent(t *testing.T) {
	rs, err := Run(context.Background(), trace.NewSliceReader(smallTrace()),
		[]coherence.Engine{must(coherence.NewDirnNB(cfg4()))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAccounting(rs[0]); err != nil {
		t.Errorf("data-dependent scheme should be skipped, got %v", err)
	}
}

func TestDirToMemBandwidthRatio(t *testing.T) {
	rs, err := Run(context.Background(), trace.NewSliceReader(smallTrace()),
		[]coherence.Engine{must(coherence.NewDir0B(cfg4()))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := rs[0].DirToMemBandwidthRatio(); r <= 0 {
		t.Errorf("ratio = %v, want positive", r)
	}
	var empty Result
	empty.Stats = &coherence.Stats{}
	if empty.DirToMemBandwidthRatio() != 0 {
		t.Error("empty ratio should be 0")
	}
}

func TestWarmupRefs(t *testing.T) {
	tr := trace.Slice{
		{CPU: 0, Kind: trace.Read, Addr: 0x10},  // warm-up: cold fill
		{CPU: 1, Kind: trace.Read, Addr: 0x10},  // warm-up: rm-blk-cln
		{CPU: 0, Kind: trace.Read, Addr: 0x10},  // measured: hit
		{CPU: 1, Kind: trace.Write, Addr: 0x10}, // measured: wh shared
	}
	rs, err := Run(context.Background(), trace.NewSliceReader(tr),
		[]coherence.Engine{must(coherence.NewDir0B(cfg4()))},
		Options{WarmupRefs: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := rs[0].Stats
	if st.Refs != 2 {
		t.Fatalf("measured Refs = %d, want 2", st.Refs)
	}
	if st.Events[events.ReadHit] != 1 {
		t.Fatalf("measured events = %v", st.Events)
	}
	// Protocol state survived the reset: the write sees the shared copy.
	if st.Events[events.WriteHitCleanShared] != 1 {
		t.Fatalf("warm state lost: %v", st.Events)
	}
}

func TestWarmupLongerThanTrace(t *testing.T) {
	tr := trace.Slice{{CPU: 0, Kind: trace.Read, Addr: 0x10}}
	rs, err := Run(context.Background(), trace.NewSliceReader(tr),
		[]coherence.Engine{must(coherence.NewDir0B(cfg4()))},
		Options{WarmupRefs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Stats.Refs != 0 {
		t.Fatalf("Refs = %d, want 0 (whole trace was warm-up)", rs[0].Stats.Refs)
	}
}

func TestWarmupValidation(t *testing.T) {
	if err := (Options{WarmupRefs: -1}).Validate(); err == nil {
		t.Error("negative WarmupRefs accepted")
	}
}

func TestAvgAccessTime(t *testing.T) {
	tr := trace.Slice{
		{CPU: 0, Kind: trace.Read, Addr: 0x10}, // first: free
		{CPU: 1, Kind: trace.Read, Addr: 0x10}, // mem read: 5 cycles
		{CPU: 0, Kind: trace.Read, Addr: 0x10}, // hit
		{CPU: 1, Kind: trace.Read, Addr: 0x10}, // hit
	}
	rs, err := Run(context.Background(), trace.NewSliceReader(tr),
		[]coherence.Engine{must(coherence.NewDir0B(cfg4()))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := bus.Pipelined().Latency(1, 1)
	// 4 refs, 1 transaction of 5 cycles + 1 overhead: 1 + 6/4 = 2.5.
	if got := rs[0].AvgAccessTime(l); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("AvgAccessTime = %v, want 2.5", got)
	}
}

func TestAvgAccessTimeAppliesModelAdjustment(t *testing.T) {
	tr := trace.Slice{
		{CPU: 0, Kind: trace.Read, Addr: 0x10},
		{CPU: 0, Kind: trace.Write, Addr: 0x10}, // wh-clean-sole: dir check
	}
	berk, err := Run(context.Background(), trace.NewSliceReader(tr),
		[]coherence.Engine{must(coherence.NewBerkeley(cfg4()))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d0b, err := Run(context.Background(), trace.NewSliceReader(tr),
		[]coherence.Engine{must(coherence.NewDir0B(cfg4()))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := bus.Pipelined().Latency(0, 0)
	if berk[0].AvgAccessTime(l) >= d0b[0].AvgAccessTime(l) {
		t.Error("Berkeley latency should drop the directory-check cost")
	}
}

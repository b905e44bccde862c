package dirsim_test

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark regenerates
// its artifact from the synthetic workloads and reports the headline
// numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. cmd/paper prints the same artifacts as
// formatted tables.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dirsim"
	"dirsim/internal/flight"
)

const benchRefs = 200_000

// benchTraces generates the three workloads once and replays them from
// memory in every benchmark iteration.
var benchTraces = struct {
	once   sync.Once
	names  []string
	traces []dirsim.Trace
}{}

func loadBenchTraces(b *testing.B) ([]string, []dirsim.Trace) {
	b.Helper()
	benchTraces.once.Do(func() {
		for _, cfg := range dirsim.Workloads(benchRefs) {
			tr, err := dirsim.GenerateTrace(cfg)
			if err != nil {
				b.Fatal(err)
			}
			benchTraces.names = append(benchTraces.names, cfg.Name)
			benchTraces.traces = append(benchTraces.traces, tr)
		}
	})
	return benchTraces.names, benchTraces.traces
}

// runCombinedBench runs schemes over all three in-memory traces and
// combines the results.
func runCombinedBench(b *testing.B, schemes []string) []dirsim.Result {
	b.Helper()
	_, traces := loadBenchTraces(b)
	perScheme := make([][]dirsim.Result, len(schemes))
	for _, tr := range traces {
		rs, err := dirsim.RunSchemes(dirsim.NewTraceReader(tr), schemes,
			dirsim.EngineConfig{Caches: 4}, dirsim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i, r := range rs {
			perScheme[i] = append(perScheme[i], r)
		}
	}
	out := make([]dirsim.Result, len(schemes))
	for i, group := range perScheme {
		c, err := dirsim.CombineResults(group)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = c
	}
	return out
}

// T1 — Table 1: the fundamental bus timings (constants; the benchmark
// verifies their derivation work is trivial and reports the block size).
func BenchmarkTable1BusTimings(b *testing.B) {
	t := dirsim.DefaultBusTiming()
	for i := 0; i < b.N; i++ {
		if err := t.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.WordsPerBlock), "words/block")
}

// T2 — Table 2: derive both cost models from Table 1.
func BenchmarkTable2BusCycleCosts(b *testing.B) {
	t := dirsim.DefaultBusTiming()
	var pip, np dirsim.CostModel
	for i := 0; i < b.N; i++ {
		pip = t.Pipelined()
		np = t.NonPipelined()
	}
	b.ReportMetric(pip.Cost[dirsim.OpMemRead], "pip_mem_cycles")
	b.ReportMetric(np.Cost[dirsim.OpMemRead], "np_mem_cycles")
}

// T3 — Table 3: trace characteristics of the three workloads.
func BenchmarkTable3TraceCharacteristics(b *testing.B) {
	_, traces := loadBenchTraces(b)
	var lockFrac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := dirsim.CollectTraceStats(dirsim.NewTraceReader(traces[0]), dirsim.DefaultBlockBytes)
		if err != nil {
			b.Fatal(err)
		}
		lockFrac = st.LockReadFraction()
	}
	b.ReportMetric(lockFrac, "POPS_lock_read_frac")
}

// T4 — Table 4: event frequencies for the four schemes.
func BenchmarkTable4EventFrequencies(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dir1nb", "wti", "dir0b", "dragon"})
	}
	b.ReportMetric(float64(rs[0].Stats.Events.ReadMisses())/float64(rs[0].Stats.Refs)*100, "Dir1NB_rm_pct")
	b.ReportMetric(float64(rs[2].Stats.Events.ReadMisses())/float64(rs[2].Stats.Refs)*100, "Dir0B_rm_pct")
	b.ReportMetric(rs[3].EventFrequency(dirsim.EvWriteHitUpdate)*100, "Dragon_whdistrib_pct")
}

// F1 — Figure 1: invalidation fan-out on writes to previously-clean
// blocks.
func BenchmarkFigure1InvalidationHistogram(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dir0b"})
	}
	h := &rs[0].Stats.InvalFanout
	b.ReportMetric(h.CumulativeFraction(1)*100, "le1_inval_pct")
	b.ReportMetric(h.Mean(), "mean_fanout")
}

// F2 — Figure 2: bus cycles per reference, averaged over the traces,
// under both bus models.
func BenchmarkFigure2BusCyclesPerReference(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dir1nb", "wti", "dir0b", "dragon"})
	}
	pip, np := dirsim.PipelinedBus(), dirsim.NonPipelinedBus()
	for _, r := range rs {
		b.ReportMetric(r.CyclesPerRef(pip), r.Scheme+"_pip")
		_ = np
	}
	b.ReportMetric(rs[3].CyclesPerRef(np), "Dragon_nonpip")
}

// F3 — Figure 3: per-trace bus cycles per reference.
func BenchmarkFigure3PerTraceBusCycles(b *testing.B) {
	names, traces := loadBenchTraces(b)
	pip := dirsim.PipelinedBus()
	vals := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ti, tr := range traces {
			rs, err := dirsim.RunSchemes(dirsim.NewTraceReader(tr),
				[]string{"dir0b"}, dirsim.EngineConfig{Caches: 4}, dirsim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			vals[names[ti]] = rs[0].CyclesPerRef(pip)
		}
	}
	for name, v := range vals {
		b.ReportMetric(v, "Dir0B_"+name)
	}
}

// T5 — Table 5: the per-operation cycle breakdown, including the Berkeley
// estimate.
func BenchmarkTable5CycleBreakdown(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dir1nb", "wti", "dir0b", "dragon", "berkeley"})
	}
	m := dirsim.PipelinedBus()
	d0 := rs[2]
	by := d0.CyclesByOp(m)
	b.ReportMetric(by[dirsim.OpWriteBack]/float64(d0.Stats.Refs), "Dir0B_writeback")
	b.ReportMetric(by[dirsim.OpDirCheck]/float64(d0.Stats.Refs), "Dir0B_diraccess")
	b.ReportMetric(rs[4].CyclesPerRef(m), "Berkeley_cpr")
}

// F4 — Figure 4: breakdown fractions per scheme.
func BenchmarkFigure4BreakdownFractions(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"wti", "dragon"})
	}
	m := dirsim.PipelinedBus()
	for _, r := range rs {
		by := r.CyclesByOp(m)
		var total float64
		for _, v := range by {
			total += v
		}
		wtwu := by[dirsim.OpWriteThrough] + by[dirsim.OpWriteUpdate]
		b.ReportMetric(wtwu/total, r.Scheme+"_write_frac")
	}
}

// F5 — Figure 5: average bus cycles per bus transaction.
func BenchmarkFigure5CyclesPerTransaction(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dir1nb", "wti", "dir0b", "dragon"})
	}
	m := dirsim.PipelinedBus()
	for _, r := range rs {
		b.ReportMetric(r.CyclesPerTransaction(m), r.Scheme+"_cpt")
	}
}

// E51 — Section 5.1: the fixed-overhead sensitivity of the Dragon-Dir0B
// gap.
func BenchmarkSection51FixedOverheadSensitivity(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dir0b", "dragon"})
	}
	m := dirsim.PipelinedBus()
	gap := func(q float64) float64 {
		return (rs[0].CyclesPerRefWithOverhead(m, q)/rs[1].CyclesPerRefWithOverhead(m, q) - 1) * 100
	}
	b.ReportMetric(gap(0), "gap_q0_pct")
	b.ReportMetric(gap(1), "gap_q1_pct")
}

// E52 — Section 5.2: the spin-lock impact on Dir1NB.
func BenchmarkSection52SpinLockImpact(b *testing.B) {
	_, traces := loadBenchTraces(b)
	m := dirsim.PipelinedBus()
	var withLocks, withoutLocks float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w, wo []dirsim.Result
		for _, tr := range traces {
			r1, err := dirsim.RunSchemes(dirsim.NewTraceReader(tr),
				[]string{"dir1nb"}, dirsim.EngineConfig{Caches: 4}, dirsim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			r2, err := dirsim.RunSchemes(dirsim.DropLockSpins(dirsim.NewTraceReader(tr)),
				[]string{"dir1nb"}, dirsim.EngineConfig{Caches: 4}, dirsim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			w = append(w, r1[0])
			wo = append(wo, r2[0])
		}
		cw, err := dirsim.CombineResults(w)
		if err != nil {
			b.Fatal(err)
		}
		cwo, err := dirsim.CombineResults(wo)
		if err != nil {
			b.Fatal(err)
		}
		withLocks = cw.CyclesPerRef(m)
		withoutLocks = cwo.CyclesPerRef(m)
	}
	b.ReportMetric(withLocks, "Dir1NB_with_locks")
	b.ReportMetric(withoutLocks, "Dir1NB_locks_excluded")
}

// E61 — Section 6: sequential invalidation vs broadcast.
func BenchmarkSection6SequentialInvalidation(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dir0b", "dirnnb"})
	}
	m := dirsim.PipelinedBus()
	b.ReportMetric(rs[0].CyclesPerRef(m), "Dir0B_cpr")
	b.ReportMetric(rs[1].CyclesPerRef(m), "DirnNB_cpr")
}

// E62 — Section 6: the Dir1B broadcast-cost model.
func BenchmarkSection6Dir1BBroadcastCost(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dir1b"})
	}
	m := dirsim.PipelinedBus()
	c1 := rs[0].CyclesPerRef(m.WithBroadcastCost(1))
	c16 := rs[0].CyclesPerRef(m.WithBroadcastCost(16))
	b.ReportMetric(c1, "cpr_b1")
	b.ReportMetric((c16-c1)/15, "slope_per_b")
}

// E63 — Section 6: the Dir_iNB / Dir_iB pointer sweep.
func BenchmarkSection6LimitedPointerSweep(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dir1b", "dir2b", "dir2nb", "dir4nb"})
	}
	b.ReportMetric(float64(rs[0].Stats.BroadcastInvals), "Dir1B_broadcasts")
	b.ReportMetric(float64(rs[1].Stats.BroadcastInvals), "Dir2B_broadcasts")
	b.ReportMetric(rs[2].Stats.Events.DataMissRate()*100, "Dir2NB_miss_pct")
	b.ReportMetric(rs[3].Stats.Events.DataMissRate()*100, "Dir4NB_miss_pct")
}

// E64 — Section 6: coded-set superset overhead.
func BenchmarkSection6CodedSetOverhead(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dirnnb", "codedset"})
	}
	wastedPer1k := float64(rs[1].Stats.WastedInvals) / float64(rs[1].Stats.Refs) * 1000
	b.ReportMetric(wastedPer1k, "wasted_inv_per_1k")
	b.ReportMetric(rs[1].CyclesPerRef(dirsim.PipelinedBus()), "CodedSet_cpr")
}

// E65 — Section 5: the effective-processor bound.
func BenchmarkSection5EffectiveProcessors(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"dragon"})
	}
	n := dirsim.EffectiveProcessors(rs[0].CyclesPerRef(dirsim.PipelinedBus()), 2, 10, 100)
	b.ReportMetric(n, "effective_procs")
}

// EX1 — ablation: directory storage per organisation.
func BenchmarkAblationDirectoryStorage(b *testing.B) {
	var fullBits, codedBits uint64
	for i := 0; i < b.N; i++ {
		p := dirsim.DefaultStorageParams(64)
		fullBits = dirsim.NewFullMapStore(64).StorageBits(p)
		cs, err := dirsim.NewCodedSetStore(64)
		if err != nil {
			b.Fatal(err)
		}
		codedBits = cs.StorageBits(p)
	}
	p := dirsim.DefaultStorageParams(64)
	b.ReportMetric(float64(fullBits)/float64(p.MemoryBlocks), "fullmap_bits_per_block")
	b.ReportMetric(float64(codedBits)/float64(p.MemoryBlocks), "coded_bits_per_block")
}

// EX2 — ablation: finite vs infinite caches (the paper's first-order
// finite-size correction, measured directly).
func BenchmarkAblationFiniteCache(b *testing.B) {
	_, traces := loadBenchTraces(b)
	m := dirsim.PipelinedBus()
	var inf, fin float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ri, err := dirsim.RunSchemes(dirsim.NewTraceReader(traces[0]),
			[]string{"dir0b"}, dirsim.EngineConfig{Caches: 4}, dirsim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rf, err := dirsim.RunSchemes(dirsim.NewTraceReader(traces[0]),
			[]string{"dir0b"}, dirsim.EngineConfig{Caches: 4, FiniteSets: 64, FiniteWays: 4},
			dirsim.Options{IncludeFirstRefCosts: true})
		if err != nil {
			b.Fatal(err)
		}
		inf = ri[0].CyclesPerRef(m)
		fin = rf[0].CyclesPerRef(m)
	}
	b.ReportMetric(inf, "infinite_cpr")
	b.ReportMetric(fin, "finite_256blk_cpr")
}

// EX3 — extension: the wider protocol zoo (Goodman write-once, Illinois
// MESI, Firefly) against the paper's four schemes.
func BenchmarkExtensionProtocolZoo(b *testing.B) {
	var rs []dirsim.Result
	for i := 0; i < b.N; i++ {
		rs = runCombinedBench(b, []string{"writeonce", "mesi", "firefly"})
	}
	m := dirsim.PipelinedBus()
	for _, r := range rs {
		b.ReportMetric(r.CyclesPerRef(m), r.Scheme+"_cpr")
	}
}

// EX4 — extension: bus contention via the closed queueing model; the
// refinement of the paper's "optimistic upper bound".
func BenchmarkExtensionBusContention(b *testing.B) {
	var knee int
	var eff16 float64
	for i := 0; i < b.N; i++ {
		rs := runCombinedBench(b, []string{"dragon"})
		model, err := rs[0].Contention(dirsim.PipelinedBus(), 0.5)
		if err != nil {
			b.Fatal(err)
		}
		ms, err := model.MVA(16)
		if err != nil {
			b.Fatal(err)
		}
		eff16 = ms[15].EffectiveProcessors
		knee, err = model.Knee(128, 0.5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(eff16, "Dragon_eff_procs_at_16")
	b.ReportMetric(float64(knee), "Dragon_knee_50pct")
}

// EX5 — ablation: spin primitive. Plain test-and-set turns every spin
// probe into an invalidating write; test-and-test-and-set spins locally.
func BenchmarkAblationLockPrimitive(b *testing.B) {
	m := dirsim.PipelinedBus()
	var tts, ts float64
	for i := 0; i < b.N; i++ {
		cfgTTS := dirsim.POPS(benchRefs)
		cfgTS := cfgTTS
		cfgTS.LockKind = dirsim.TestAndSet
		for _, run := range []struct {
			cfg dirsim.WorkloadConfig
			dst *float64
		}{{cfgTTS, &tts}, {cfgTS, &ts}} {
			gen, err := dirsim.NewGenerator(run.cfg)
			if err != nil {
				b.Fatal(err)
			}
			rs, err := dirsim.RunSchemes(gen, []string{"dir0b"},
				dirsim.EngineConfig{Caches: 4}, dirsim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			*run.dst = rs[0].CyclesPerRef(m)
		}
	}
	b.ReportMetric(tts, "Dir0B_TTS_cpr")
	b.ReportMetric(ts, "Dir0B_TS_cpr")
	b.ReportMetric(ts/tts, "TS_penalty_x")
}

// E71 — Section 7: distributed memory/directory scaling vs a central bus.
func BenchmarkSection7DistributedScaling(b *testing.B) {
	var central, distributed []float64
	for i := 0; i < b.N; i++ {
		rs := runCombinedBench(b, []string{"dir0b"})
		model, err := rs[0].Contention(dirsim.PipelinedBus(), 0.5)
		if err != nil {
			b.Fatal(err)
		}
		central, distributed, err = dirsim.ScalingCurve(
			model.ThinkCycles, model.ServiceCycles, 2, []int{64})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(central[0], "central_eff_at_64")
	b.ReportMetric(distributed[0], "distributed_eff_at_64")
}

// EX6 — ablation: coherence block size. Larger blocks cut cold misses but
// merge independently-written words into shared blocks (false sharing).
func BenchmarkAblationBlockSize(b *testing.B) {
	_, traces := loadBenchTraces(b)
	m := dirsim.PipelinedBus()
	vals := map[int]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bytes := range []int{16, 32, 64} {
			rs, err := dirsim.RunSchemes(dirsim.NewTraceReader(traces[0]),
				[]string{"dir0b"}, dirsim.EngineConfig{Caches: 4},
				dirsim.Options{BlockBytes: bytes})
			if err != nil {
				b.Fatal(err)
			}
			vals[bytes] = rs[0].CyclesPerRef(m)
		}
	}
	for _, bytes := range []int{16, 32, 64} {
		b.ReportMetric(vals[bytes], fmt.Sprintf("Dir0B_cpr_%dB", bytes))
	}
}

// EX7 — ablation: global barriers. The releasing write invalidates every
// waiter at once, fattening Figure 1's tail; update protocols instead pay
// one update per release.
func BenchmarkAblationBarriers(b *testing.B) {
	m := dirsim.PipelinedBus()
	var offCPR, onCPR, onTailFrac float64
	for i := 0; i < b.N; i++ {
		off := dirsim.PERO(benchRefs)
		on := off
		on.BarrierInterval = 500
		for _, run := range []struct {
			cfg  dirsim.WorkloadConfig
			cpr  *float64
			tail *float64
		}{{off, &offCPR, nil}, {on, &onCPR, &onTailFrac}} {
			gen, err := dirsim.NewGenerator(run.cfg)
			if err != nil {
				b.Fatal(err)
			}
			rs, err := dirsim.RunSchemes(gen, []string{"dir0b"},
				dirsim.EngineConfig{Caches: 4}, dirsim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			*run.cpr = rs[0].CyclesPerRef(m)
			if run.tail != nil {
				h := &rs[0].Stats.InvalFanout
				*run.tail = 1 - h.CumulativeFraction(1)
			}
		}
	}
	b.ReportMetric(offCPR, "Dir0B_no_barriers_cpr")
	b.ReportMetric(onCPR, "Dir0B_barriers_cpr")
	b.ReportMetric(onTailFrac*100, "fanout_gt1_pct_with_barriers")
}

// EX8 — extension: the Section 7 machine at message level — protocol
// messages and critical-path hops per reference on the distributed
// full-map directory, under both home-assignment policies.
func BenchmarkExtensionNUMAHops(b *testing.B) {
	_, traces := loadBenchTraces(b)
	vals := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, policy := range []dirsim.NUMAConfig{
			{Nodes: 4, Policy: dirsim.Interleaved},
			{Nodes: 4, Policy: dirsim.FirstTouch},
		} {
			e, err := dirsim.NewNUMA(policy)
			if err != nil {
				b.Fatal(err)
			}
			st, err := dirsim.RunNUMA(dirsim.NewTraceReader(traces[0]), e, dirsim.NUMAOptions{})
			if err != nil {
				b.Fatal(err)
			}
			vals[policy.Policy.String()+"_hops"] = st.CriticalHopsPerRef()
			vals[policy.Policy.String()+"_local"] = st.LocalHomeFraction()
		}
	}
	for k, v := range vals {
		b.ReportMetric(v, k)
	}
}

// EX9 — extension: sparse directories. A directory cache with a fraction
// of the blocks' entries costs little, because directory locality follows
// cache locality.
func BenchmarkExtensionSparseDirectory(b *testing.B) {
	_, traces := loadBenchTraces(b)
	m := dirsim.PipelinedBus()
	vals := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, entries := range []int{512, 2048, 0} {
			rs, err := dirsim.RunSchemes(dirsim.NewTraceReader(traces[0]),
				[]string{"dirnnb"}, dirsim.EngineConfig{Caches: 4, DirEntries: entries},
				dirsim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			label := fmt.Sprintf("cpr_%d_entries", entries)
			if entries == 0 {
				label = "cpr_unbounded"
			}
			vals[label] = rs[0].CyclesPerRef(m)
		}
	}
	for k, v := range vals {
		b.ReportMetric(v, k)
	}
}

// EX10 — footnote 5: Figure 1's single-invalidation dominance on a larger
// machine, plus the protocol-free sharing profile.
func BenchmarkExtensionLargerMachine(b *testing.B) {
	var le1 float64
	var ptr1 float64
	for i := 0; i < b.N; i++ {
		cfg := dirsim.POPS(benchRefs)
		cfg.CPUs = 16
		cfg.Locks = 3
		gen, err := dirsim.NewGenerator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := dirsim.RunSchemes(gen, []string{"dir0b"},
			dirsim.EngineConfig{Caches: 16}, dirsim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		le1 = rs[0].Stats.InvalFanout.CumulativeFraction(1) * 100
		gen2, err := dirsim.NewGenerator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		prof, err := dirsim.ProfileTrace(gen2, dirsim.DefaultBlockBytes)
		if err != nil {
			b.Fatal(err)
		}
		ptr1 = prof.PointerSufficiency(1) * 100
	}
	b.ReportMetric(le1, "le1_inval_pct_16p")
	b.ReportMetric(ptr1, "one_pointer_writes_pct_16p")
}

// Throughput benchmark: raw simulation speed of the batched driver over a
// representative scheme mix, inline versus fanned out to workers, versus
// inline with the flight recorder at its default sampling. The parallel
// variant shards the engine set across GOMAXPROCS workers; results are
// bitwise-identical to sequential (asserted in internal/sim's parallel
// tests), so this measures pure driver overhead and scaling. The traced
// variant measures the recorder's overhead: on a 2-core Xeon VM its
// throughput was 0.86–1.09× sequential's over 8 paired runs (DESIGN.md
// §7). It is reported, not gated.
func BenchmarkSimulatorThroughput(b *testing.B) {
	_, traces := loadBenchTraces(b)
	tr := traces[0]
	schemes := []string{"dir1nb", "wti", "dir0b", "dragon"}
	cfg := dirsim.EngineConfig{Caches: 4}
	run := func(b *testing.B, mkOpts func() dirsim.Options) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dirsim.RunSchemes(dirsim.NewTraceReader(tr), schemes, cfg, mkOpts()); err != nil {
				b.Fatal(err)
			}
		}
		// Engine-refs per second: each scheme consumes the full trace.
		b.ReportMetric(float64(len(tr)*len(schemes))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
	}
	b.Run("sequential", func(b *testing.B) { run(b, func() dirsim.Options { return dirsim.Options{} }) })
	b.Run("single", func(b *testing.B) {
		// One engine, sequential: the per-reference cost of the hot path
		// itself, with no fan-out amortization — the number the
		// data-oriented engine rewrite is measured on (BENCH_*.json).
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dirsim.RunSchemes(dirsim.NewTraceReader(tr), []string{"dir0b"}, cfg, dirsim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tr))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
	})
	b.Run("parallel", func(b *testing.B) {
		run(b, func() dirsim.Options { return dirsim.Options{Parallel: runtime.GOMAXPROCS(0)} })
	})
	b.Run("traced", func(b *testing.B) {
		// A fresh recorder per run, as the CLIs do: rings and track
		// tables belong to one run's trace.
		run(b, func() dirsim.Options {
			return dirsim.Options{Recorder: flight.New(flight.Options{Sample: flight.DefaultSample})}
		})
	})
}

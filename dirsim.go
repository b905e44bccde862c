// Package dirsim is a trace-driven multiprocessor cache-coherence
// simulator reproducing "An Evaluation of Directory Schemes for Cache
// Coherence" (Agarwal, Simoni, Hennessy, Horowitz; ISCA 1988).
//
// The package is the public face of the library; it re-exports the pieces
// a user composes:
//
//   - traces: the Ref record, streaming readers/writers, binary and text
//     codecs, filters, and Table 3 statistics (internal/trace);
//   - synthetic workloads: parameterised generators with POPS/THOR/PERO
//     presets standing in for the paper's ATUM traces (internal/tracegen);
//   - protocol engines: the directory family Dir1NB / Dir_iNB / Dir_nNB /
//     Dir0B / Dir_iB / coded-set / Tang, the snoopy comparison points WTI
//     and Dragon, and the Berkeley cost model (internal/coherence);
//   - bus cost models: the Table 1 timings and the pipelined and
//     non-pipelined Table 2 models (internal/bus);
//   - the simulation driver with the paper's first-reference exclusion and
//     process-sharing attribution (internal/sim);
//   - directory storage organisations and their bit budgets
//     (internal/directory);
//   - bus-contention queueing models and the Section 7 distributed-machine
//     network (internal/queueing), plus the message-level NUMA directory
//     (internal/numa);
//   - replicated studies with confidence intervals (internal/study);
//   - report renderers for every table and figure, CSV and Markdown
//     output (internal/report).
//
// A minimal run:
//
//	gen, _ := dirsim.NewGenerator(dirsim.POPS(1_000_000))
//	engines, _ := dirsim.Section3Engines(dirsim.EngineConfig{Caches: 4})
//	results, _ := dirsim.Run(gen, engines, dirsim.Options{})
//	for _, r := range results {
//		fmt.Printf("%-8s %.4f bus cycles/ref\n", r.Scheme,
//			r.CyclesPerRef(dirsim.PipelinedBus()))
//	}
//
// See examples/ for complete programs and cmd/paper for the full
// reproduction of the paper's evaluation.
package dirsim

import (
	"context"
	"io"

	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/coherence"
	"dirsim/internal/directory"
	"dirsim/internal/events"
	"dirsim/internal/numa"
	"dirsim/internal/queueing"
	"dirsim/internal/sim"
	"dirsim/internal/study"
	"dirsim/internal/trace"
	"dirsim/internal/tracegen"
)

// ---------------------------------------------------------------------------
// Traces.

// Ref is one memory reference in a multiprocessor trace.
type Ref = trace.Ref

// RefKind classifies a reference (instruction fetch, data read, data
// write).
type RefKind = trace.Kind

// Reference kinds.
const (
	Instr = trace.Instr
	Read  = trace.Read
	Write = trace.Write
)

// DefaultBlockBytes is the paper's 16-byte (4-word) coherence block.
const DefaultBlockBytes = trace.DefaultBlockBytes

// TraceReader yields references in trace order; TraceWriter consumes them.
type (
	TraceReader = trace.Reader
	TraceWriter = trace.Writer
)

// Trace is an in-memory reference sequence.
type Trace = trace.Slice

// TraceStats is the Table 3 summary of a trace.
type TraceStats = trace.Stats

// NewTraceReader replays an in-memory trace.
func NewTraceReader(refs []Ref) *trace.SliceReader { return trace.NewSliceReader(refs) }

// ReadTrace drains a reader into memory.
func ReadTrace(rd TraceReader) (Trace, error) { return trace.ReadAll(rd) }

// NewBinaryTraceWriter and NewBinaryTraceReader stream the compact binary
// trace format.
func NewBinaryTraceWriter(w io.Writer) *trace.BinaryWriter { return trace.NewBinaryWriter(w) }

// NewBinaryTraceReader reads the compact binary trace format.
func NewBinaryTraceReader(r io.Reader) *trace.BinaryReader { return trace.NewBinaryReader(r) }

// NewTextTraceWriter writes the human-readable trace format.
func NewTextTraceWriter(w io.Writer) *trace.TextWriter { return trace.NewTextWriter(w) }

// NewTextTraceReader reads the human-readable trace format.
func NewTextTraceReader(r io.Reader) *trace.TextReader { return trace.NewTextReader(r) }

// DropLockSpins removes test-and-test-and-set spin reads (the Section 5.2
// experiment).
func DropLockSpins(rd TraceReader) TraceReader { return trace.DropLockSpins(rd) }

// LimitTrace yields at most n references.
func LimitTrace(rd TraceReader, n int) TraceReader { return trace.Limit(rd, n) }

// CollectTraceStats computes Table 3 statistics for a trace.
func CollectTraceStats(rd TraceReader, blockBytes int) (TraceStats, error) {
	return trace.CollectStats(rd, blockBytes)
}

// SharingProfile measures a trace's sharing structure — static and dynamic
// sharing degrees and pointer sufficiency — with no protocol model
// (Section 2's demanded measurement).
type SharingProfile = trace.SharingProfile

// ProfileTrace computes the sharing profile of a trace.
func ProfileTrace(rd TraceReader, blockBytes int) (*SharingProfile, error) {
	return trace.Profile(rd, blockBytes)
}

// ---------------------------------------------------------------------------
// Synthetic workloads.

// WorkloadConfig parameterises a synthetic multiprocessor workload.
type WorkloadConfig = tracegen.Config

// POPS, THOR and PERO return workload presets modelled on the paper's
// three ATUM traces.
func POPS(refs int) WorkloadConfig { return tracegen.POPS(refs) }

// THOR returns the parallel-logic-simulator workload preset.
func THOR(refs int) WorkloadConfig { return tracegen.THOR(refs) }

// PERO returns the low-sharing VLSI-router workload preset.
func PERO(refs int) WorkloadConfig { return tracegen.PERO(refs) }

// Workloads returns all three presets at the given trace length.
func Workloads(refs int) []WorkloadConfig { return tracegen.Presets(refs) }

// LockKind selects the spin primitive a workload uses.
type LockKind = tracegen.LockKind

// Spin-lock primitives for WorkloadConfig.LockKind.
const (
	TestAndTestAndSet = tracegen.TestAndTestAndSet
	TestAndSet        = tracegen.TestAndSet
)

// NewGenerator returns a streaming TraceReader producing cfg's workload.
func NewGenerator(cfg WorkloadConfig) (*tracegen.Generator, error) { return tracegen.New(cfg) }

// GenerateTrace produces cfg's full trace in memory.
func GenerateTrace(cfg WorkloadConfig) (Trace, error) { return tracegen.Generate(cfg) }

// ---------------------------------------------------------------------------
// Bus cost models.

// BusTiming holds the Table 1 fundamental bus operation timings.
type BusTiming = bus.Timing

// CostModel prices bus operations (one Table 2 column).
type CostModel = bus.CostModel

// BusOp enumerates bus operations (Table 5's rows).
type BusOp = bus.Op

// DefaultBusTiming returns Table 1 exactly.
func DefaultBusTiming() BusTiming { return bus.DefaultTiming() }

// PipelinedBus returns the paper's pipelined-bus cost model.
func PipelinedBus() CostModel { return bus.Pipelined() }

// NonPipelinedBus returns the paper's non-pipelined-bus cost model.
func NonPipelinedBus() CostModel { return bus.NonPipelined() }

// EffectiveProcessors computes the closing single-bus scaling bound of
// Section 5.
func EffectiveProcessors(cyclesPerRef, refsPerInstr, mips, busCycleNs float64) float64 {
	return bus.EffectiveProcessors(cyclesPerRef, refsPerInstr, mips, busCycleNs)
}

// ---------------------------------------------------------------------------
// Protocol engines.

// Engine is a coherence protocol engine.
type Engine = coherence.Engine

// EngineConfig carries machine parameters (cache count; optional finite
// cache geometry).
type EngineConfig = coherence.Config

// EngineStats are the tallies an engine accumulates.
type EngineStats = coherence.Stats

// NewEngine constructs a protocol engine by scheme name: "dir1nb",
// "dir<i>nb", "dirnnb", "dir0b", "dir<i>b", "codedset", "tang", "wti",
// "dragon", "berkeley", "mesi", "writeonce" or "firefly".
func NewEngine(name string, cfg EngineConfig) (Engine, error) {
	return coherence.NewByName(name, cfg)
}

// Section3Engines returns the paper's head-to-head schemes in order:
// Dir1NB, WTI, Dir0B, Dragon.
func Section3Engines(cfg EngineConfig) ([]Engine, error) {
	return coherence.Section3Engines(cfg)
}

// SchemeNames lists the scheme names NewEngine accepts.
func SchemeNames() []string { return coherence.EngineNames() }

// ---------------------------------------------------------------------------
// Events and operations.

// EventType classifies a reference under a protocol's state-change model
// (the Table 4 taxonomy).
type EventType = events.Type

// The Table 4 event types.
const (
	EvInstr               = events.Instr
	EvReadHit             = events.ReadHit
	EvReadMissClean       = events.ReadMissClean
	EvReadMissDirty       = events.ReadMissDirty
	EvReadMissUncached    = events.ReadMissUncached
	EvReadMissFirst       = events.ReadMissFirst
	EvWriteHitDirty       = events.WriteHitDirty
	EvWriteHitCleanSole   = events.WriteHitCleanSole
	EvWriteHitCleanShared = events.WriteHitCleanShared
	EvWriteHitUpdate      = events.WriteHitUpdate
	EvWriteHitLocal       = events.WriteHitLocal
	EvWriteMissClean      = events.WriteMissClean
	EvWriteMissDirty      = events.WriteMissDirty
	EvWriteMissUncached   = events.WriteMissUncached
	EvWriteMissFirst      = events.WriteMissFirst
)

// The bus operations engines emit (Table 5's rows).
const (
	OpMemRead             = bus.OpMemRead
	OpCacheRead           = bus.OpCacheRead
	OpWriteBack           = bus.OpWriteBack
	OpWriteThrough        = bus.OpWriteThrough
	OpWriteUpdate         = bus.OpWriteUpdate
	OpDirCheck            = bus.OpDirCheck
	OpDirCheckOverlapped  = bus.OpDirCheckOverlapped
	OpInvalidate          = bus.OpInvalidate
	OpBroadcastInvalidate = bus.OpBroadcastInvalidate
)

// ---------------------------------------------------------------------------
// Simulation driver.

// Options configures a simulation run.
type Options = sim.Options

// Result is the outcome of one engine over one trace.
type Result = sim.Result

// Cache-attribution modes for Options.CacheBy.
const (
	ByCPU     = sim.ByCPU
	ByProcess = sim.ByProcess
)

// Run streams a trace through every engine in lockstep.
func Run(rd TraceReader, engines []Engine, opts Options) ([]Result, error) {
	return sim.Run(context.Background(), rd, engines, opts)
}

// RunContext is Run with a context that can cancel the simulation between
// reference batches. With opts.Parallel > 1 the engines run on worker
// goroutines; results are identical to the sequential driver.
func RunContext(ctx context.Context, rd TraceReader, engines []Engine, opts Options) ([]Result, error) {
	return sim.Run(ctx, rd, engines, opts)
}

// RunSchemes builds the named engines and runs the trace through them.
// The results equal Run's over the same engines, but only the engines
// whose Stats no other engine of the run determines are simulated:
// Dir0B, Dir_iB, Berkeley, Tang, WTI, Write-Once and MESI are priced from
// a simulated engine sharing their state-change model where that is exact
// (Tang from DirnNB; Dir0B and Berkeley from a directory engine that never
// evicts a copy, under a memory-resident directory; Dir_iB likewise under
// infinite caches; the snoopy schemes from a multiple-readers/single-writer
// engine under infinite caches). With an enabled Options.Recorder every
// scheme is simulated and traced.
func RunSchemes(rd TraceReader, names []string, cfg EngineConfig, opts Options) ([]Result, error) {
	return sim.RunSchemes(context.Background(), rd, names, cfg, opts)
}

// RunSchemesContext is RunSchemes with a cancellation context; it prices
// the same schemes RunSchemes does.
func RunSchemesContext(ctx context.Context, rd TraceReader, names []string, cfg EngineConfig, opts Options) ([]Result, error) {
	return sim.RunSchemes(ctx, rd, names, cfg, opts)
}

// CombineResults merges per-trace results of one scheme, reference-
// weighted, the way the paper averages across its three traces.
func CombineResults(results []Result) (Result, error) { return sim.Combine(results) }

// VerifyAccounting cross-checks the event-frequency methodology against
// the direct operation tally for fixed-cost schemes (Dir1NB, Dir0B,
// Berkeley, WTI, Write-Once, MESI, Dragon and Firefly): the result's
// events priced by the scheme's per-event cost table, plus its eviction
// write-backs, must equal its operations. That table is the one the
// snoopy invalidation engines emit from and pricing reads; the directory
// and update engines emit their operations directly, so for them it is
// checked against a second statement of the costs. It returns nil for
// other schemes. A run that replaced sparse-directory entries is not
// checkable; the error then wraps ErrAccountingNotCheckable.
func VerifyAccounting(r Result) error { return sim.VerifyAccounting(r) }

// ErrAccountingNotCheckable is wrapped by VerifyAccounting's error for a
// result whose operations its events cannot account for.
var ErrAccountingNotCheckable = sim.ErrNotCheckable

// ---------------------------------------------------------------------------
// Replicated studies.

// SchemeSummary is a scheme's metric across replicated runs (mean, stddev,
// 95% confidence interval).
type SchemeSummary = study.Summary

// PairedComparison is the seed-paired difference between two schemes.
type PairedComparison = study.PairedComparison

// SeedSweep replays a workload across the given seeds for every scheme and
// summarises the metric per scheme; comparisons between the returned
// summaries are seed-paired.
func SeedSweep(base WorkloadConfig, seeds []int64, schemes []string,
	cfg EngineConfig, opts Options, metric func(Result) float64) ([]SchemeSummary, error) {
	return study.SeedSweep(context.Background(), base, seeds, schemes, cfg, opts, metric)
}

// ParallelSeedSweep is SeedSweep with the replications run concurrently on
// a bounded worker pool; summaries are identical to SeedSweep's.
func ParallelSeedSweep(ctx context.Context, base WorkloadConfig, seeds []int64, schemes []string,
	cfg EngineConfig, opts Options, metric func(Result) float64) ([]SchemeSummary, error) {
	return study.ParallelSeedSweep(ctx, base, seeds, schemes, cfg, opts, metric)
}

// StudySeeds derives n deterministic, well-separated seeds.
func StudySeeds(base int64, n int) []int64 { return study.Seeds(base, n) }

// CompareSchemes computes the paired difference between two summaries from
// one SeedSweep.
func CompareSchemes(a, b SchemeSummary) (PairedComparison, error) { return study.Compare(a, b) }

// MetricCyclesPerRef is the standard SeedSweep metric.
func MetricCyclesPerRef(m CostModel) func(Result) float64 { return study.CyclesPerRef(m) }

// ---------------------------------------------------------------------------
// Bus contention.

// ContentionModel is the closed machine-repairman model of a shared bus:
// N processors alternating between local computation and bus transactions.
// Build one from a Result with Result.Contention, then solve with MVA,
// Simulate, Knee or Saturation.
type ContentionModel = queueing.Model

// ContentionMetrics is the steady-state outcome for one population size.
type ContentionMetrics = queueing.Metrics

// DistributedMachine is the Section 7 model: processors, an interconnect,
// and K memory/directory modules the address space interleaves across.
// With Modules = 1 it degenerates to the single-bus ContentionModel.
type DistributedMachine = queueing.Network

// ScalingCurve compares a centralised machine with one whose memory and
// directory are distributed one module per processor (the paper's Section 7
// remedy), returning processor-efficiency series for each population size.
func ScalingCurve(think, service, interconnect float64, sizes []int) (central, distributed []float64, err error) {
	return queueing.ScalingCurve(think, service, interconnect, sizes)
}

// ---------------------------------------------------------------------------
// Distributed (NUMA) machine.

// NUMAConfig describes the Section 7 distributed machine for message-level
// simulation: each node holds a processor, memory and its slice of the
// full-map directory.
type NUMAConfig = numa.Config

// NUMAEngine simulates the distributed full-map directory at the message
// level, counting protocol messages, critical-path hops, and home-locality.
type NUMAEngine = numa.Engine

// NUMAStats is the message-level accounting of a distributed run.
type NUMAStats = numa.Stats

// NUMAOptions configures a trace run on the distributed machine.
type NUMAOptions = numa.Options

// Home-assignment policies for NUMAConfig.Policy.
const (
	Interleaved = numa.Interleaved
	FirstTouch  = numa.FirstTouch
)

// NewNUMA returns a distributed-directory engine.
func NewNUMA(cfg NUMAConfig) (*NUMAEngine, error) { return numa.New(cfg) }

// RunNUMA streams a trace through the distributed machine.
func RunNUMA(rd TraceReader, e *NUMAEngine, opts NUMAOptions) (*NUMAStats, error) {
	return numa.Run(context.Background(), rd, e, opts)
}

// RunNUMAContext is RunNUMA with a cancellation context.
func RunNUMAContext(ctx context.Context, rd TraceReader, e *NUMAEngine, opts NUMAOptions) (*NUMAStats, error) {
	return numa.Run(ctx, rd, e, opts)
}

// ---------------------------------------------------------------------------
// Directory storage organisations.

// DirectoryStore is a directory organisation (full map, two-bit, limited
// pointers, coded set, Tang duplicate tags).
type DirectoryStore = directory.Store

// BlockID is the dense identifier an interned block address maps to. The
// simulator interns each distinct data-block address once during decode and
// engines index their per-block state arrays by it; directory stores and
// cache replacers are keyed by it as well.
type BlockID = blockid.ID

// StorageParams describes a machine for directory storage accounting.
type StorageParams = directory.StorageParams

// DefaultStorageParams returns a machine comparable to the paper's.
func DefaultStorageParams(caches int) StorageParams {
	return directory.DefaultStorageParams(caches)
}

// Directory store constructors, for storage studies and custom engines.
var (
	NewFullMapStore = directory.NewFullMap
	NewTwoBitStore  = directory.NewTwoBit
	NewTangStore    = directory.NewTang
)

// NewLimitedPointerStore returns a Dir_iB (broadcast=true) or Dir_iNB
// store with i pointers for n caches.
func NewLimitedPointerStore(i, n int, broadcast bool) (*directory.LimitedPointer, error) {
	return directory.NewLimitedPointer(i, n, broadcast)
}

// NewCodedSetStore returns the Section 6 superset-coded store.
func NewCodedSetStore(n int) (*directory.CodedSet, error) { return directory.NewCodedSet(n) }

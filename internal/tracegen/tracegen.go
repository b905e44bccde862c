// Package tracegen generates synthetic multiprocessor address traces.
//
// The paper drives its simulations with ATUM traces of three parallel
// applications (POPS, THOR, PERO) captured on a 4-CPU VAX 8350 under MACH.
// Those traces are unavailable, so this package synthesises reference
// streams with the same statistical structure the paper reports
// (Section 4.4, Table 3):
//
//   - roughly half of all references are instruction fetches;
//   - a high data read-to-write ratio, inflated in POPS and THOR by
//     test-and-test-and-set spins, which account for about one third of all
//     reads;
//   - about 10% operating-system activity;
//   - sharing dominated by inter-process (not migration-induced) sharing,
//     with PERO sharing far less than POPS and THOR;
//   - process migration rare.
//
// The generator models processes pinned to CPUs (with optional migration)
// executing a loop of instruction fetches, private-data references with
// working-set locality, shared-heap references, and critical sections
// guarded by test-and-test-and-set spin locks. All randomness is drawn from
// a seeded source, so a given Config always yields the identical trace.
//
// That source is rng.go, a copy of the Go distribution's
// src/math/rand/rng.go (BSD-licensed; the Go authors' notice is kept in
// the file) with (*rand.Rand)'s Float64, Intn and Shuffle reproduced over
// it value for value, so traces are those math/rand generated while each
// draw inlines instead of calling through the rand.Source interface.
// TestRNGMatchesMathRand holds the copy to math/rand.
package tracegen

import (
	"fmt"

	"dirsim/internal/trace"
)

// Address-space layout. Regions are separated by high bits so distinct
// pools can never collide regardless of pool sizes.
const (
	regionCode    = 0x0100_0000_0000
	regionPrivate = 0x0200_0000_0000
	regionShared  = 0x0300_0000_0000
	regionLocks   = 0x0400_0000_0000
	regionLockDat = 0x0500_0000_0000
	regionKernel  = 0x0600_0000_0000
	regionPaired  = 0x0700_0000_0000
	regionBarrier = 0x0800_0000_0000

	perProcStride = 1 << 32 // spacing of per-process sub-regions
	perLockStride = 1 << 20 // spacing of lock-protected data regions
)

// Config parameterises a synthetic workload. Use a preset (POPS, THOR,
// PERO) as a starting point.
type Config struct {
	// Name labels the trace in reports.
	Name string
	// Seed fixes the random stream; equal configs generate equal traces.
	Seed int64
	// CPUs is the number of processors (the paper traces four).
	CPUs int
	// ProcsPerCPU is how many application processes run on each CPU.
	ProcsPerCPU int
	// Refs is the total number of references to emit.
	Refs int

	// InstrFrac is the fraction of references that are instruction
	// fetches (Table 3: roughly one half).
	InstrFrac float64
	// WriteFrac is the fraction of ordinary (non-lock) data references
	// that are writes.
	WriteFrac float64
	// SharedFrac is the fraction of ordinary data references that target
	// the shared heap rather than private data.
	SharedFrac float64
	// SharedBlocks is the number of 16-byte blocks in the shared heap.
	SharedBlocks int
	// SharedWriteFrac is the write fraction for shared-heap references.
	// Shared data in the paper's traces is read far more than written;
	// when zero, WriteFrac applies.
	SharedWriteFrac float64

	// PairedFrac is the fraction of ordinary data references that follow
	// a producer-consumer (migratory) pattern: each process writes its
	// own staging region and reads its neighbour's. Writes there
	// invalidate at most one other copy, the dominant case Figure 1
	// reports.
	PairedFrac float64
	// PairedBlocks is the size of each process's staging region.
	PairedBlocks int
	// PairedWriteFrac is the write fraction when a process touches its
	// own staging region.
	PairedWriteFrac float64

	// LockDataBlocks is the number of blocks in each lock's protected
	// region (the data a critical section manipulates).
	LockDataBlocks int
	// PrivateBlocks is the number of blocks in each process's private
	// region.
	PrivateBlocks int
	// HotFrac is the fraction of a pool that forms its hot working set;
	// HotBias is the probability a reference stays inside the hot set.
	HotFrac, HotBias float64

	// Locks is the number of spin locks.
	Locks int
	// LockKind selects the spin primitive: TestAndTestAndSet (the
	// default; waiters spin on reads and only write when the lock looks
	// free) or TestAndSet (every spin attempt is a write, the pathological
	// primitive Section 5.2's discussion warns about).
	LockKind LockKind
	// LockAttemptRate is the per-data-reference probability that a
	// process not holding a lock tries to enter a critical section.
	LockAttemptRate float64
	// CriticalLen is the number of data references executed while
	// holding a lock (the lock-protected data region is shared).
	CriticalLen int
	// CriticalWriteFrac is the write fraction inside critical sections.
	CriticalWriteFrac float64

	// BarrierInterval, when positive, is the expected number of ordinary
	// data references a process executes between joining global
	// barriers. A barrier is a counter the arrivals increment plus a
	// generation word the waiters spin on; the releasing write
	// invalidates (or updates) every waiter's copy at once. Zero
	// disables barriers (the presets' default — the paper's traces gate
	// with locks).
	BarrierInterval int

	// KernelFrac is the fraction of references issued in kernel mode
	// (Table 3: roughly 10%).
	KernelFrac float64
	// MigrationRate is the per-quantum probability that a process
	// migrates to another CPU (the paper observes few migrations).
	MigrationRate float64
	// Quantum is the number of references a process issues per
	// scheduling turn before the generator rotates to the next CPU.
	Quantum int
}

// LockKind is the synchronisation primitive processes spin with.
type LockKind uint8

const (
	// TestAndTestAndSet spins on ordinary reads of the lock word and
	// attempts the atomic set only when the lock is observed free. The
	// spin reads hit in the waiter's cache under multiple-copy schemes.
	TestAndTestAndSet LockKind = iota
	// TestAndSet retries the atomic set itself: every spin iteration is
	// a write that must gain exclusive access, invalidating the other
	// waiters' copies each time.
	TestAndSet
)

// Validate checks the configuration for nonsensical values.
func (c Config) Validate() error {
	switch {
	case c.CPUs <= 0 || c.CPUs > 256:
		return fmt.Errorf("tracegen: CPUs = %d out of range [1,256]", c.CPUs)
	case c.ProcsPerCPU <= 0:
		return fmt.Errorf("tracegen: ProcsPerCPU = %d must be positive", c.ProcsPerCPU)
	case c.Refs < 0:
		return fmt.Errorf("tracegen: Refs = %d must be non-negative", c.Refs)
	case c.SharedBlocks <= 0 || c.PrivateBlocks <= 0:
		return fmt.Errorf("tracegen: block pools must be positive")
	case c.Locks < 0:
		return fmt.Errorf("tracegen: Locks = %d must be non-negative", c.Locks)
	case c.Quantum <= 0:
		return fmt.Errorf("tracegen: Quantum = %d must be positive", c.Quantum)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"InstrFrac", c.InstrFrac}, {"WriteFrac", c.WriteFrac},
		{"SharedFrac", c.SharedFrac}, {"HotFrac", c.HotFrac},
		{"HotBias", c.HotBias}, {"LockAttemptRate", c.LockAttemptRate},
		{"CriticalWriteFrac", c.CriticalWriteFrac}, {"KernelFrac", c.KernelFrac},
		{"MigrationRate", c.MigrationRate},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("tracegen: %s = %v outside [0,1]", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SharedWriteFrac", c.SharedWriteFrac},
		{"PairedFrac", c.PairedFrac},
		{"PairedWriteFrac", c.PairedWriteFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("tracegen: %s = %v outside [0,1]", f.name, f.v)
		}
	}
	if c.SharedFrac+c.PairedFrac > 1 {
		return fmt.Errorf("tracegen: SharedFrac+PairedFrac = %v exceeds 1", c.SharedFrac+c.PairedFrac)
	}
	if c.PairedFrac > 0 && c.PairedBlocks <= 0 {
		return fmt.Errorf("tracegen: PairedBlocks must be positive when PairedFrac > 0")
	}
	if c.Locks > 0 && c.CriticalLen <= 0 {
		return fmt.Errorf("tracegen: CriticalLen must be positive when Locks > 0")
	}
	if c.Locks > 0 && c.LockDataBlocks <= 0 {
		return fmt.Errorf("tracegen: LockDataBlocks must be positive when Locks > 0")
	}
	if c.LockKind > TestAndSet {
		return fmt.Errorf("tracegen: unknown LockKind %d", c.LockKind)
	}
	if c.BarrierInterval < 0 {
		return fmt.Errorf("tracegen: negative BarrierInterval %d", c.BarrierInterval)
	}
	return nil
}

// POPS returns a configuration modelled on the paper's POPS trace: a
// parallel OPS5 rule-based system with heavy lock spinning (about a third of
// reads are lock tests) and substantial read sharing.
func POPS(refs int) Config {
	return Config{
		Name: "POPS", Seed: 0x9005, CPUs: 4, ProcsPerCPU: 1, Refs: refs,
		InstrFrac: 0.50, WriteFrac: 0.26, SharedFrac: 0.22, SharedWriteFrac: 0.015,
		SharedBlocks: 1024, PrivateBlocks: 4096,
		PairedFrac: 0.03, PairedBlocks: 48, PairedWriteFrac: 0.45,
		HotFrac: 0.05, HotBias: 0.85,
		Locks: 1, LockAttemptRate: 0.010, CriticalLen: 60, CriticalWriteFrac: 0.30,
		LockDataBlocks: 4,
		KernelFrac:     0.10, MigrationRate: 0, Quantum: 3,
	}
}

// THOR returns a configuration modelled on the paper's THOR trace: a
// parallel logic simulator with lock spinning like POPS but a somewhat
// higher write fraction.
func THOR(refs int) Config {
	return Config{
		Name: "THOR", Seed: 0x7406, CPUs: 4, ProcsPerCPU: 1, Refs: refs,
		InstrFrac: 0.45, WriteFrac: 0.28, SharedFrac: 0.26, SharedWriteFrac: 0.02,
		SharedBlocks: 1536, PrivateBlocks: 4096,
		PairedFrac: 0.035, PairedBlocks: 64, PairedWriteFrac: 0.5,
		HotFrac: 0.06, HotBias: 0.82,
		Locks: 1, LockAttemptRate: 0.011, CriticalLen: 55, CriticalWriteFrac: 0.35,
		LockDataBlocks: 4,
		KernelFrac:     0.15, MigrationRate: 0, Quantum: 3,
	}
}

// PERO returns a configuration modelled on the paper's PERO trace: a
// parallel VLSI router whose high read/write ratio comes from the algorithm
// rather than from spinning, and whose fraction of references to shared
// blocks is much smaller than POPS's and THOR's.
func PERO(refs int) Config {
	return Config{
		Name: "PERO", Seed: 0x9e60, CPUs: 4, ProcsPerCPU: 1, Refs: refs,
		InstrFrac: 0.52, WriteFrac: 0.24, SharedFrac: 0.04, SharedWriteFrac: 0.01,
		SharedBlocks: 2048, PrivateBlocks: 8192,
		PairedFrac: 0.008, PairedBlocks: 32, PairedWriteFrac: 0.4,
		HotFrac: 0.04, HotBias: 0.88,
		Locks: 2, LockAttemptRate: 0.0012, CriticalLen: 8, CriticalWriteFrac: 0.30,
		LockDataBlocks: 4,
		KernelFrac:     0.08, MigrationRate: 0, Quantum: 3,
	}
}

// Presets returns the three paper workloads at the given length.
func Presets(refs int) []Config {
	return []Config{POPS(refs), THOR(refs), PERO(refs)}
}

// proc is the state of one synthetic process.
type proc struct {
	pid  uint16
	cpu  int
	code uint64 // next instruction address
	// private is the address of the first block of the process's private
	// pool, whose blocks are consecutive.
	private uint64

	wantLock int // lock being waited for, -1 if none
	// atBarrier marks a process waiting at the global barrier;
	// barrierGen is the generation it observed on arrival.
	atBarrier  bool
	barrierGen uint64
	holdLock   int // lock held, -1 if none
	critLeft   int // critical-section references remaining
}

// Generator produces the reference stream for a Config. It implements
// trace.ChunkReader, generating lazily one scheduling turn at a time.
type Generator struct {
	cfg   Config
	rng   *rngSource
	procs []*proc
	// shared is the shared heap in shuffled order; its first sharedHot
	// blocks are the hot set every process shares. Private pools are
	// unshuffled, so a private pick is index arithmetic; privateHot is
	// the size of each one's hot set.
	shared     []uint64
	sharedHot  int
	privateHot int
	// runq[cpu] lists indices into procs currently scheduled on cpu.
	runq    [][]int
	rrCPU   int   // next CPU to schedule
	rrSlot  []int // per-CPU round-robin position
	lockPos []uint64
	holder  []int // lock → procs index of holder, -1 if free

	// Global barrier: arrival counter and generation word (one block
	// each), the current generation, and how many have arrived.
	barrierCount uint64
	barrierGen   uint64
	arrived      int

	// out receives the references a turn emits: a view of the caller's
	// chunk with room for a whole turn, or spill otherwise.
	out []trace.Ref
	// spill receives every turn Next runs and each turn a chunk has no
	// room for; pending is the part of the last one not yet handed out.
	spill, pending []trace.Ref
	// maxTurn bounds the references one turn emits (see fillTurn).
	maxTurn int
	emitted int
}

// New returns a Generator for cfg, or an error if cfg is invalid.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A turn's loop advances its slot counter by at most 2 per
	// iteration and ends at most one slot past Quantum, emitting at most
	// 3 references per 2 slots (a barrier arrival that releases).
	maxTurn := 2*cfg.Quantum + 2
	g := &Generator{
		cfg:     cfg,
		rng:     newRNG(cfg.Seed),
		runq:    make([][]int, cfg.CPUs),
		rrSlot:  make([]int, cfg.CPUs),
		spill:   make([]trace.Ref, 0, maxTurn),
		maxTurn: maxTurn,
	}
	// Partition each pool into a hot working set and a cold remainder.
	// All processes share one hot set so that read sharing actually
	// occurs; cold shared references are the tail.
	g.shared = make([]uint64, cfg.SharedBlocks)
	for i := range g.shared {
		g.shared[i] = regionShared + uint64(i)*trace.DefaultBlockBytes
	}
	g.rng.Shuffle(len(g.shared), func(i, j int) {
		g.shared[i], g.shared[j] = g.shared[j], g.shared[i]
	})
	g.sharedHot = splitIdx(cfg.SharedBlocks, cfg.HotFrac)
	g.privateHot = splitIdx(cfg.PrivateBlocks, cfg.HotFrac)
	pid := uint16(1)
	for cpu := 0; cpu < cfg.CPUs; cpu++ {
		for s := 0; s < cfg.ProcsPerCPU; s++ {
			p := &proc{
				pid:      pid,
				cpu:      cpu,
				code:     regionCode + uint64(pid)*perProcStride,
				private:  regionPrivate + uint64(pid)*perProcStride,
				wantLock: -1,
				holdLock: -1,
			}
			g.procs = append(g.procs, p)
			g.runq[cpu] = append(g.runq[cpu], len(g.procs)-1)
			pid++
		}
	}
	g.lockPos = make([]uint64, cfg.Locks)
	g.holder = make([]int, cfg.Locks)
	for i := range g.lockPos {
		g.lockPos[i] = regionLocks + uint64(i)*trace.DefaultBlockBytes
		g.holder[i] = -1
	}
	return g, nil
}

func splitIdx(n int, frac float64) int {
	h := int(float64(n) * frac)
	if h < 1 {
		h = 1
	}
	if h > n {
		h = n
	}
	return h
}

// Next implements trace.Reader.
func (g *Generator) Next() (trace.Ref, error) {
	if g.emitted >= g.cfg.Refs {
		return trace.Ref{}, errEOF
	}
	for len(g.pending) == 0 {
		g.spillTurn()
	}
	r := g.pending[0]
	g.pending = g.pending[1:]
	g.emitted++
	return r, nil
}

// ReadChunk implements trace.ChunkReader. While the chunk has room for a
// whole turn, turns emit straight into it; the turn that would not fit
// runs into the spill buffer, and what does not fit stays pending for the
// next call.
func (g *Generator) ReadChunk(buf []trace.Ref) ([]trace.Ref, error) {
	if rem := g.cfg.Refs - g.emitted; len(buf) > rem {
		buf = buf[:rem]
	}
	n := copy(buf, g.pending)
	g.pending = g.pending[n:]
	for n < len(buf) {
		room := len(buf) - n
		if room < g.maxTurn {
			g.spillTurn()
			k := copy(buf[n:], g.pending)
			g.pending = g.pending[k:]
			n += k
			continue
		}
		g.out = buf[n:n:len(buf)]
		g.fillTurn()
		if len(g.out) > room {
			// append outgrew the chunk, so the turn is not in buf.
			panic("tracegen: turn longer than maxTurn")
		}
		n += len(g.out)
	}
	g.emitted += n
	if g.emitted >= g.cfg.Refs {
		return buf[:n], errEOF
	}
	return buf[:n], nil
}

// spillTurn runs one turn into the spill buffer and makes it pending.
func (g *Generator) spillTurn() {
	g.out = g.spill[:0]
	g.fillTurn()
	g.spill = g.out
	g.pending = g.out
}

// fillTurn runs one scheduling turn: the next CPU's current process issues
// up to Quantum references (at most maxTurn) into out.
func (g *Generator) fillTurn() {
	// Find a CPU with runnable processes (all CPUs have some unless
	// migration empties one; then skip it).
	for tries := 0; tries < g.cfg.CPUs; tries++ {
		cpu := g.rrCPU
		g.rrCPU = (g.rrCPU + 1) % g.cfg.CPUs
		q := g.runq[cpu]
		if len(q) == 0 {
			continue
		}
		slot := g.rrSlot[cpu] % len(q)
		g.rrSlot[cpu] = (slot + 1) % len(q)
		pi := q[slot]
		g.runProc(pi)
		g.maybeMigrate(pi)
		return
	}
	// All run queues empty cannot happen (processes never exit), but fill
	// with idle instruction fetches for robustness.
	g.out = append(g.out, trace.Ref{Kind: trace.Instr, Addr: regionKernel})
}

// maybeMigrate moves process pi to a random other CPU with probability
// MigrationRate.
func (g *Generator) maybeMigrate(pi int) {
	if g.cfg.CPUs < 2 || g.cfg.MigrationRate <= 0 {
		return
	}
	if g.rng.Float64() >= g.cfg.MigrationRate {
		return
	}
	p := g.procs[pi]
	from := p.cpu
	to := g.rng.Intn(g.cfg.CPUs - 1)
	if to >= from {
		to++
	}
	q := g.runq[from]
	for i, idx := range q {
		if idx == pi {
			g.runq[from] = append(q[:i], q[i+1:]...)
			break
		}
	}
	g.runq[to] = append(g.runq[to], pi)
	p.cpu = to
}

// runProc emits one quantum of references for process pi.
func (g *Generator) runProc(pi int) {
	p := g.procs[pi]
	for n := 0; n < g.cfg.Quantum; n++ {
		kernel := g.rng.Float64() < g.cfg.KernelFrac
		// Waiting at the global barrier: spin on the generation word
		// until the last arrival bumps it.
		if p.atBarrier {
			if g.barrierGen != p.barrierGen {
				// Released: observe the new generation and move on.
				g.emit(p, trace.Ref{Kind: trace.Read, Addr: regionBarrier + trace.DefaultBlockBytes, Kernel: kernel})
				p.atBarrier = false
				continue
			}
			if g.rng.Float64() < g.cfg.InstrFrac {
				g.emit(p, trace.Ref{Kind: trace.Instr, Addr: p.code, Kernel: kernel})
			} else {
				g.emit(p, trace.Ref{Kind: trace.Read, Addr: regionBarrier + trace.DefaultBlockBytes, Lock: true, Kernel: kernel})
			}
			continue
		}
		// Spinning on a lock: emit the test read of the
		// test-and-test-and-set. The whole quantum is consumed by
		// spinning if the lock stays held, which is exactly the
		// behaviour that penalises Dir1NB in Section 5.2.
		if p.wantLock >= 0 {
			if g.holder[p.wantLock] == -1 {
				// The lock is free. Test-and-test-and-set observes that
				// with one more test read before the set; plain
				// test-and-set just succeeds on its next attempt.
				if g.cfg.LockKind == TestAndTestAndSet {
					g.emit(p, trace.Ref{Kind: trace.Read, Addr: g.lockPos[p.wantLock], Lock: true, Kernel: kernel})
					n++ // the test consumed a slot too
				}
				g.emit(p, trace.Ref{Kind: trace.Write, Addr: g.lockPos[p.wantLock], Kernel: kernel})
				g.holder[p.wantLock] = pi
				p.holdLock = p.wantLock
				p.wantLock = -1
				p.critLeft = g.cfg.CriticalLen
				continue
			}
			// The spin loop's own code: a test-and-branch sequence, so
			// instruction fetches interleave with the lock probes at
			// roughly the workload's instruction fraction. Under
			// test-and-test-and-set the probe is a read; under plain
			// test-and-set every probe is a (failing) atomic write.
			if g.rng.Float64() < g.cfg.InstrFrac {
				g.emit(p, trace.Ref{Kind: trace.Instr, Addr: p.code, Kernel: kernel})
			} else if g.cfg.LockKind == TestAndSet {
				g.emit(p, trace.Ref{Kind: trace.Write, Addr: g.lockPos[p.wantLock], Lock: true, Kernel: kernel})
			} else {
				g.emit(p, trace.Ref{Kind: trace.Read, Addr: g.lockPos[p.wantLock], Lock: true, Kernel: kernel})
			}
			continue
		}
		// Instruction fetch?
		if g.rng.Float64() < g.cfg.InstrFrac {
			g.emit(p, trace.Ref{Kind: trace.Instr, Addr: p.code, Kernel: kernel})
			p.code += 4
			if g.rng.Float64() < 0.05 { // occasional branch
				p.code = regionCode + uint64(p.pid)*perProcStride + uint64(g.rng.Intn(1<<16))*4
			}
			continue
		}
		// Inside a critical section: references to the lock's shared
		// data region, then the releasing write.
		if p.holdLock >= 0 {
			if p.critLeft > 0 {
				p.critLeft--
				addr := regionLockDat + uint64(p.holdLock)*perLockStride +
					uint64(g.rng.Intn(g.cfg.LockDataBlocks))*trace.DefaultBlockBytes
				kind := trace.Read
				if g.rng.Float64() < g.cfg.CriticalWriteFrac {
					kind = trace.Write
				}
				g.emit(p, trace.Ref{Kind: kind, Addr: addr, Kernel: kernel})
				continue
			}
			g.emit(p, trace.Ref{Kind: trace.Write, Addr: g.lockPos[p.holdLock], Kernel: kernel})
			g.holder[p.holdLock] = -1
			p.holdLock = -1
			continue
		}
		// Join the global barrier?
		if g.cfg.BarrierInterval > 0 && g.rng.Float64() < 1/float64(g.cfg.BarrierInterval) {
			// Arrive: atomically bump the shared counter (read + write).
			g.emit(p, trace.Ref{Kind: trace.Read, Addr: regionBarrier, Kernel: kernel})
			g.emit(p, trace.Ref{Kind: trace.Write, Addr: regionBarrier, Kernel: kernel})
			g.arrived++
			n++ // the counter update consumed a slot too
			if g.arrived == len(g.procs) {
				// Last arrival releases everyone: reset the counter
				// and publish the next generation.
				g.arrived = 0
				g.barrierGen++
				g.emit(p, trace.Ref{Kind: trace.Write, Addr: regionBarrier + trace.DefaultBlockBytes, Kernel: kernel})
			} else {
				p.atBarrier = true
				p.barrierGen = g.barrierGen
			}
			continue
		}
		// Try to enter a critical section?
		if g.cfg.Locks > 0 && g.rng.Float64() < g.cfg.LockAttemptRate {
			p.wantLock = g.rng.Intn(g.cfg.Locks)
			// First test happens on the next iteration.
			n--
			continue
		}
		// Ordinary data reference: read-mostly shared heap,
		// producer-consumer staging regions, or private data.
		var addr uint64
		kind := trace.Read
		switch r := g.rng.Float64(); {
		case r < g.cfg.SharedFrac:
			addr = g.shared[g.pick(g.sharedHot, len(g.shared))]
			wf := g.cfg.SharedWriteFrac
			if wf <= 0 {
				wf = g.cfg.WriteFrac
			}
			if g.rng.Float64() < wf {
				kind = trace.Write
			}
		case r < g.cfg.SharedFrac+g.cfg.PairedFrac:
			// Producer-consumer: write own staging region, read the
			// neighbouring process's. Such writes invalidate at most
			// one other copy — Figure 1's dominant case.
			if g.rng.Float64() < 0.5 {
				addr = g.pairedAddr(int(p.pid))
				if g.rng.Float64() < g.cfg.PairedWriteFrac {
					kind = trace.Write
				}
			} else {
				addr = g.pairedAddr(g.neighbour(int(p.pid)))
			}
		default:
			addr = p.private + uint64(g.pick(g.privateHot, g.cfg.PrivateBlocks))*trace.DefaultBlockBytes
			if g.rng.Float64() < g.cfg.WriteFrac {
				kind = trace.Write
			}
		}
		g.emit(p, trace.Ref{Kind: kind, Addr: addr, Kernel: kernel})
	}
}

// pairedAddr picks a block in process pid's staging region.
func (g *Generator) pairedAddr(pid int) uint64 {
	return regionPaired + uint64(pid)*perLockStride +
		uint64(g.rng.Intn(g.cfg.PairedBlocks))*trace.DefaultBlockBytes
}

// neighbour returns the producer whose staging region pid consumes (PIDs
// are assigned 1..n).
func (g *Generator) neighbour(pid int) int {
	n := g.cfg.CPUs * g.cfg.ProcsPerCPU
	return (pid % n) + 1
}

// pick draws an index into a pool of n blocks with working-set locality:
// the first hot indices are the hot set, the rest the cold remainder.
func (g *Generator) pick(hot, n int) int {
	if n == hot || g.rng.Float64() < g.cfg.HotBias {
		return g.rng.Intn(hot)
	}
	return hot + g.rng.Intn(n-hot)
}

func (g *Generator) emit(p *proc, r trace.Ref) {
	r.CPU = uint8(p.cpu)
	r.PID = p.pid
	g.out = append(g.out, r)
}

// Generate produces the full trace for cfg in memory, in one allocation
// of cfg.Refs references filled through ReadChunk.
func Generate(cfg Config) (trace.Slice, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Refs == 0 {
		return nil, nil
	}
	// A chunk of cfg.Refs holds the whole trace; its error is io.EOF.
	refs, _ := g.ReadChunk(make(trace.Slice, cfg.Refs))
	return refs, nil
}

package coherence

import (
	"fmt"

	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// Dragon is the Xerox Dragon snoopy update protocol, the paper's
// high-performance comparison point. Instead of invalidating stale copies,
// a write to a shared block broadcasts the new word and every holder
// updates in place; a special "shared" bus line tells the writer whether
// any other cache holds the block. In an infinite cache a block, once
// loaded, stays forever, so Dragon's miss rates are the native miss rates
// of the trace and its dominant cost is the write updates (Table 4's
// wh-distrib row).
//
// The same engine runs the whole update family, which shares Dragon's
// state-change model and differs only in what an update does: Firefly
// writes it through to memory, and competitive update counts it against
// a self-invalidation threshold.
//
// The ground truth is the core's blockStates: dirty means memory is stale.
// owner stays -1, because under an update protocol every copy is current
// and no single cache owns the block. Every path that drops the last copy
// flushes and clears dirty, so empty slots are indistinguishable from
// absent entries of the map representation this replaced.
type Dragon struct {
	engineCore
	// updatesMemory marks the Firefly variant: a write update also
	// refreshes main memory (write-through for shared data), so memory
	// is only ever stale for blocks written while privately held.
	updatesMemory bool

	// threshold is competitive update's k: a copy that absorbs k foreign
	// updates without a local access drops out. Zero (Dragon, Firefly)
	// updates forever. The counters live in the core's blockStates.
	threshold int
}

// NewDragon returns a Dragon engine.
func NewDragon(cfg Config) (*Dragon, error) {
	return newUpdateEngine("Dragon", false, 0, cfg)
}

// NewFirefly returns the DEC Firefly update protocol: like Dragon, stale
// copies are updated rather than invalidated, but the update word is also
// written through to main memory, so shared data never goes stale in
// memory and misses to it are served by memory rather than by a cache.
func NewFirefly(cfg Config) (*Dragon, error) {
	return newUpdateEngine("Firefly", true, 0, cfg)
}

// NewCompetitive returns a competitive-update engine: Dragon with a
// self-invalidation threshold. Each cached copy counts the updates it has
// absorbed since its processor last touched the block; at the threshold
// the copy drops out instead of being updated again.
//
// Pure update protocols never unshare: one stale sharer turns every later
// write into bus traffic forever (the pathology is easy to provoke in this
// simulator — migrate a process once under Dragon and its old cache is
// updated until the end of time). Competitive update bounds the damage at
// k wasted updates per departed sharer, interpolating between Dragon
// (k = ∞) and an invalidation protocol (k = 0's limit). The threshold
// trades update traffic against re-miss traffic, the classic competitive
// argument (pay at most a constant factor over the offline-optimal
// choice). threshold must be at least 1.
func NewCompetitive(threshold int, cfg Config) (*Dragon, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("coherence: competitive threshold %d must be at least 1", threshold)
	}
	return newUpdateEngine(fmt.Sprintf("Competitive%d", threshold), false, threshold, cfg)
}

func newUpdateEngine(name string, updatesMemory bool, threshold int, cfg Config) (*Dragon, error) {
	core, err := newCore(name, cfg)
	if err != nil {
		return nil, err
	}
	if threshold > 0 {
		core.state.stride = cfg.Caches
	}
	return &Dragon{engineCore: core, updatesMemory: updatesMemory, threshold: threshold}, nil
}

// Access implements Engine: intern the block and delegate to AccessID.
func (e *Dragon) Access(c int, kind trace.Kind, block uint64, first bool) events.Type {
	return e.AccessID(c, kind, block, e.intern(kind, block), first)
}

// AccessID implements IndexedEngine.
func (e *Dragon) AccessID(c int, kind trace.Kind, block uint64, id blockid.ID, first bool) events.Type {
	e.begin(c)
	switch kind {
	case trace.Instr:
		e.event(events.Instr)
		return events.Instr
	case trace.Read:
		e.read(c, block, id, first)
	case trace.Write:
		e.write(c, block, id, first)
	}
	e.end(c)
	return e.last
}

func (e *Dragon) read(c int, block uint64, id blockid.ID, first bool) {
	e.state.ensure(id)
	st := &e.state
	if st.sharers[id].Contains(c) {
		e.event(events.ReadHit)
		e.state.used(id, c)
		e.touch(c, id)
		return
	}
	if first {
		e.event(events.ReadMissFirst)
		e.fill(c, block, id)
		return
	}
	switch {
	case st.dirty[id]:
		// Another cache holds the current value and supplies it over
		// the bus (memory is stale). In Firefly memory snarfs the data
		// as it passes, becoming current again.
		e.event(events.ReadMissDirty)
		e.emit(bus.OpCacheRead)
		if e.updatesMemory {
			st.dirty[id] = false
		}
	case !st.sharers[id].Empty():
		e.event(events.ReadMissClean)
		e.emit(bus.OpMemRead)
	default:
		e.event(events.ReadMissUncached)
		e.emit(bus.OpMemRead)
	}
	e.fill(c, block, id)
}

func (e *Dragon) write(c int, block uint64, id blockid.ID, first bool) {
	e.state.ensure(id)
	st := &e.state
	if st.sharers[id].Contains(c) {
		e.touch(c, id)
		e.state.used(id, c)
		if st.sharers[id].ContainsOther(c) {
			// The shared line is pulled: broadcast the word so other
			// copies stay current.
			e.event(events.WriteHitUpdate)
			e.update(id, c)
		} else {
			e.event(events.WriteHitLocal)
			st.dirty[id] = true
		}
		return
	}
	if first {
		e.event(events.WriteMissFirst)
		e.fill(c, block, id)
		st.dirty[id] = true
		return
	}
	switch {
	case st.dirty[id]:
		e.event(events.WriteMissDirty)
		e.emit(bus.OpCacheRead)
	case !st.sharers[id].Empty():
		e.event(events.WriteMissClean)
		e.emit(bus.OpMemRead)
	default:
		e.event(events.WriteMissUncached)
		e.emit(bus.OpMemRead)
	}
	hadSharers := !st.sharers[id].Empty()
	e.fill(c, block, id)
	if hadSharers {
		// The freshly written word is distributed to the other holders.
		e.update(id, c)
	} else {
		st.dirty[id] = true
	}
}

// update broadcasts the word writer just wrote to the block's other
// holders. Memory goes stale unless the protocol writes the update through
// (Firefly). Under a threshold, every other holder counts the update and
// drops its copy once it has absorbed threshold of them; the writer keeps
// its copy, so memory stays stale with the writer holding it.
func (e *Dragon) update(id blockid.ID, writer int) {
	e.emit(bus.OpWriteUpdate)
	e.state.dirty[id] = !e.updatesMemory
	if e.threshold == 0 {
		return
	}
	st := &e.state
	base := int(id) * st.stride
	sh := &st.sharers[id]
	// Dropping h mid-loop is safe: Next only looks forward from h+1.
	for h := sh.Next(0); h >= 0; h = sh.Next(h + 1) {
		if h == writer {
			continue
		}
		st.unused[base+h]++
		if int(st.unused[base+h]) < e.threshold {
			continue
		}
		sh.Remove(h)
		st.unused[base+h] = 0
		e.stats.PointerEvictions++ // reuse the "copies dropped by policy" counter
		e.removeFromReplacer(h, id)
	}
}

func (e *Dragon) fill(c int, block uint64, id blockid.ID) {
	e.state.sharers[id].Add(c)
	e.state.used(id, c)
	e.insert(c, block, id)
}

// CheckInvariants implements Engine.
func (e *Dragon) CheckInvariants() error {
	// Slots never written have dirty == false and zero counters, so only
	// genuinely inconsistent states reach the error arms: a dropped or
	// evicted copy's counter is zeroed where the map representation
	// deleted it.
	for i := range e.state.sharers {
		id := blockid.ID(i)
		if e.state.dirty[i] && e.state.sharers[i].Empty() {
			return fmt.Errorf("%s: block %#x stale in memory with no cached copy", e.name, e.tab.Block(id))
		}
		if e.threshold == 0 {
			continue
		}
		base := i * e.state.stride
		for c := 0; c < e.state.stride; c++ {
			n := int(e.state.unused[base+c])
			if n != 0 && !e.state.sharers[i].Contains(c) {
				return fmt.Errorf("%s: block %#x counter for non-holder %d", e.name, e.tab.Block(id), c)
			}
			if n >= e.threshold {
				return fmt.Errorf("%s: block %#x holder %d kept past threshold (%d)", e.name, e.tab.Block(id), c, n)
			}
		}
	}
	return nil
}

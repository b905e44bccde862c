package coherence

import (
	"fmt"

	"dirsim/internal/bitset"
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
type Dragon struct {
	engineCore
	// updatesMemory marks the Firefly variant: a write update also
	// refreshes main memory (write-through for shared data), so memory
	// is only ever stale for blocks written while privately held.
	updatesMemory bool

	st dragonStates
}

// dragonStates is the ground truth under an update protocol, held as
// parallel arrays indexed by block id: who holds copies and whether main
// memory has the latest value. An empty sharer set is the "never cached /
// evicted everywhere" state, and every path that drops the last copy
// flushes and clears memStale, so empty slots are indistinguishable from
// absent entries of the map representation this replaced.
type dragonStates struct {
	sharers  []bitset.Set
	memStale []bool
}

func (t *dragonStates) ensure(id blockid.ID) {
	if int(id) < len(t.sharers) {
		return
	}
	n := int(id) + 1 + len(t.sharers)
	t.sharers, t.memStale = grow(t.sharers, n), grow(t.memStale, n)
}

// NewDragon returns a Dragon engine.
func NewDragon(cfg Config) (*Dragon, error) {
	return newUpdateEngine("Dragon", false, cfg)
}

// NewFirefly returns the DEC Firefly update protocol: like Dragon, stale
// copies are updated rather than invalidated, but the update word is also
// written through to main memory, so shared data never goes stale in
// memory and misses to it are served by memory rather than by a cache.
func NewFirefly(cfg Config) (*Dragon, error) {
	return newUpdateEngine("Firefly", true, cfg)
}

func newUpdateEngine(name string, updatesMemory bool, cfg Config) (*Dragon, error) {
	core, err := newCore(name, cfg)
	if err != nil {
		return nil, err
	}
	return &Dragon{engineCore: core, updatesMemory: updatesMemory}, nil
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
	e.st.ensure(id)
	if e.st.sharers[id].Contains(c) {
		e.event(events.ReadHit)
		e.touch(c, id)
		return
	}
	if first {
		e.event(events.ReadMissFirst)
		e.fill(c, block, id)
		return
	}
	switch {
	case e.st.memStale[id]:
		// Another cache holds the current value and supplies it over
		// the bus (memory is stale). In Firefly memory snarfs the data
		// as it passes, becoming current again.
		e.event(events.ReadMissDirty)
		e.emit(bus.OpCacheRead)
		if e.updatesMemory {
			e.st.memStale[id] = false
		}
	case !e.st.sharers[id].Empty():
		e.event(events.ReadMissClean)
		e.emit(bus.OpMemRead)
	default:
		e.event(events.ReadMissUncached)
		e.emit(bus.OpMemRead)
	}
	e.fill(c, block, id)
}

func (e *Dragon) write(c int, block uint64, id blockid.ID, first bool) {
	e.st.ensure(id)
	if e.st.sharers[id].Contains(c) {
		e.touch(c, id)
		if e.st.sharers[id].ContainsOther(c) {
			// The shared line is pulled: broadcast the word so other
			// copies stay current. Firefly's update also writes the
			// word through to memory.
			e.event(events.WriteHitUpdate)
			e.emit(bus.OpWriteUpdate)
			e.st.memStale[id] = !e.updatesMemory
		} else {
			e.event(events.WriteHitLocal)
			e.st.memStale[id] = true
		}
		return
	}
	if first {
		e.event(events.WriteMissFirst)
		e.fill(c, block, id)
		e.st.memStale[id] = true
		return
	}
	switch {
	case e.st.memStale[id]:
		e.event(events.WriteMissDirty)
		e.emit(bus.OpCacheRead)
	case !e.st.sharers[id].Empty():
		e.event(events.WriteMissClean)
		e.emit(bus.OpMemRead)
	default:
		e.event(events.WriteMissUncached)
		e.emit(bus.OpMemRead)
	}
	hadSharers := !e.st.sharers[id].Empty()
	e.fill(c, block, id)
	if hadSharers {
		// The freshly written word is distributed to the other holders
		// (and, in Firefly, through to memory).
		e.emit(bus.OpWriteUpdate)
		e.st.memStale[id] = !e.updatesMemory
	} else {
		e.st.memStale[id] = true
	}
}

func (e *Dragon) fill(c int, block uint64, id blockid.ID) {
	e.st.sharers[id].Add(c)
	if e.replacers == nil {
		return
	}
	victim, evicted := e.replacers[c].Insert(block, id)
	if !evicted {
		return
	}
	e.stats.Evictions++
	e.st.ensure(victim)
	e.st.sharers[victim].Remove(c)
	if e.st.sharers[victim].Empty() && e.st.memStale[victim] {
		// Last holder of a block memory does not have: flush it.
		e.emit(bus.OpWriteBack)
		e.stats.EvictionWriteBacks++
		e.st.memStale[victim] = false
	}
}

// CheckInvariants implements Engine.
func (e *Dragon) CheckInvariants() error {
	// Slots never written have memStale == false, so only genuinely
	// inconsistent states reach the error arm.
	for i := range e.st.sharers {
		if e.st.memStale[i] && e.st.sharers[i].Empty() {
			return fmt.Errorf("%s: block %#x stale in memory with no cached copy", e.name, e.tab.Block(blockid.ID(i)))
		}
	}
	return nil
}

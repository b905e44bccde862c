package coherence

import (
	"fmt"

	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// MOESI is the five-state snoopy invalidation protocol: MESI plus an Owned
// state that permits *dirty sharing*. When another cache reads a modified
// block, the owner supplies it cache-to-cache and keeps responsibility for
// the (still stale) memory copy instead of writing back — the write-back
// happens only when the owner finally evicts the block or another writer
// takes it. On migratory and producer-consumer data this removes the
// write-back from every hand-off that MESI pays for.
//
// Ground truth therefore differs from the MESI/Dir0B family: a block can be
// shared while memory is stale, with a designated owner. The event
// classification reflects it — every read miss to such a block is
// rm-blk-drty, no matter how many readers have joined since the write.
//
// The ground truth is the core's blockStates: dirty means memory is stale,
// and owner is the holder responsible for the stale data. The protocol
// keeps "empty sharers ⇒ memory current" (the owner's eviction flushes),
// so an empty slot is indistinguishable from an absent entry of the map
// representation this replaced.
type MOESI struct {
	engineCore
}

// NewMOESI returns a MOESI engine.
func NewMOESI(cfg Config) (*MOESI, error) {
	core, err := newCore("MOESI", cfg)
	if err != nil {
		return nil, err
	}
	return &MOESI{engineCore: core}, nil
}

// Access implements Engine: intern the block and delegate to AccessID.
func (e *MOESI) Access(c int, kind trace.Kind, block uint64, first bool) events.Type {
	return e.AccessID(c, kind, block, e.intern(kind, block), first)
}

// AccessID implements IndexedEngine.
func (e *MOESI) AccessID(c int, kind trace.Kind, block uint64, id blockid.ID, first bool) events.Type {
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

func (e *MOESI) read(c int, block uint64, id blockid.ID, first bool) {
	e.state.ensure(id)
	if e.state.sharers[id].Contains(c) {
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
	case e.state.dirty[id]:
		// The owner supplies the block cache-to-cache and stays Owned;
		// memory remains stale — MOESI's defining move.
		e.event(events.ReadMissDirty)
		e.emit(bus.OpCacheRead)
	case !e.state.sharers[id].Empty():
		// Illinois-style cache-to-cache supply of clean data.
		e.event(events.ReadMissClean)
		e.emit(bus.OpCacheRead)
	default:
		e.event(events.ReadMissUncached)
		e.emit(bus.OpMemRead)
	}
	e.fill(c, block, id)
}

func (e *MOESI) write(c int, block uint64, id blockid.ID, first bool) {
	e.state.ensure(id)
	if e.state.sharers[id].Contains(c) {
		e.touch(c, id)
		others := e.state.sharers[id].CountExcluding(c)
		switch {
		case e.state.dirty[id] && int(e.state.owner[id]) == c && others == 0:
			// Modified: silent.
			e.event(events.WriteHitDirty)
			return
		case others == 0:
			// Exclusive: silent upgrade (memory current, sole copy).
			e.event(events.WriteHitCleanSole)
			e.state.dirty[id] = true
			e.state.owner[id] = int32(c)
			return
		default:
			// Shared or Owned-with-sharers: one invalidation broadcast.
			e.stats.InvalFanout.Observe(others)
			if e.state.dirty[id] {
				// An Owned block being rewritten: classified like a
				// dirty hit but the sharers must still go.
				e.event(events.WriteHitDirty)
			} else {
				e.event(events.WriteHitCleanShared)
			}
			e.emit(bus.OpBroadcastInvalidate)
			e.stats.InvalEvents++
			e.stats.BroadcastInvals++
			e.keepOnly(&e.state.sharers[id], id, c)
			e.state.dirty[id] = true
			e.state.owner[id] = int32(c)
			return
		}
	}
	if first {
		e.event(events.WriteMissFirst)
		e.state.sharers[id].Add(c)
		e.state.dirty[id] = true
		e.state.owner[id] = int32(c)
		e.insertReplacer(c, block, id)
		return
	}
	switch {
	case e.state.dirty[id]:
		// Read-for-ownership served by the owner; its copy and every
		// other sharer's are invalidated by the snooped request.
		e.event(events.WriteMissDirty)
		e.emit(bus.OpCacheRead)
	case !e.state.sharers[id].Empty():
		e.event(events.WriteMissClean)
		e.emit(bus.OpCacheRead)
	default:
		e.event(events.WriteMissUncached)
		e.emit(bus.OpMemRead)
	}
	e.keepOnly(&e.state.sharers[id], id, c)
	e.state.sharers[id].Add(c)
	e.state.dirty[id] = true
	e.state.owner[id] = int32(c)
	e.insertReplacer(c, block, id)
}

func (e *MOESI) fill(c int, block uint64, id blockid.ID) {
	e.state.sharers[id].Add(c)
	e.insertReplacer(c, block, id)
}

func (e *MOESI) insertReplacer(c int, block uint64, id blockid.ID) {
	if e.replacers == nil {
		return
	}
	victim, evicted := e.replacers[c].Insert(block, id)
	if !evicted {
		return
	}
	e.stats.Evictions++
	e.state.ensure(victim)
	e.state.sharers[victim].Remove(c)
	if e.state.dirty[victim] && int(e.state.owner[victim]) == c {
		// The owner leaves: flush, and if sharers remain, ownership
		// passes to one of them (memory is now current, so it need
		// not — Owned exists to avoid this write-back on *reads*, but
		// an eviction forces it).
		e.emit(bus.OpWriteBack)
		e.stats.EvictionWriteBacks++
		e.state.dirty[victim] = false
		e.state.owner[victim] = -1
	}
}

// CheckInvariants implements Engine.
func (e *MOESI) CheckInvariants() error {
	// Unused and fully evicted slots have memStale == false (the owner's
	// eviction flushes), so only live blocks reach the error arm.
	for i := range e.state.sharers {
		if e.state.dirty[i] && !e.state.sharers[i].Contains(int(e.state.owner[i])) {
			return fmt.Errorf("MOESI: block %#x stale but owner %d holds no copy", e.tab.Block(blockid.ID(i)), e.state.owner[i])
		}
	}
	return nil
}

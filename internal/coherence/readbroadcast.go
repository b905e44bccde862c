package coherence

import (
	"fmt"

	"dirsim/internal/bitset"
	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// ReadBroadcast is the Rudolph–Segall read-broadcast protocol (the paper's
// reference [6]): a write-through invalidation scheme in which a cache
// whose copy was invalidated snarfs the data the next time any other cache
// reads the block over the bus — the read reply is a broadcast, so the
// refill is free. One bus read after a write repairs *every* invalidated
// copy at once, which collapses the read-miss chains invalidation
// protocols otherwise suffer on widely read-shared data.
//
// The engine extends the WTI state-change model with a per-block set of
// "snarfers": caches that held the block when it was last invalidated.
// Their copies reappear on the next bus fill. Because this changes the
// state-change model itself, ReadBroadcast's event frequencies differ from
// the Dir0B/WTI family — the point of the optimisation.
type ReadBroadcast struct {
	engineCore
	// snarfers holds, per block id beside the core's ground truth, the
	// caches whose invalidated copies are waiting to snarf the next bus
	// read. A slot with empty sharers and empty snarfers (and therefore
	// dirty == false — the sole written holder's eviction clears it) is
	// indistinguishable from an absent entry of the map representation
	// this replaced.
	snarfers []bitset.Set
}

// ensure grows the per-block state to cover id. It stays small enough to
// inline on every reference; the growth itself is outlined in growTo.
func (e *ReadBroadcast) ensure(id blockid.ID) {
	if int(id) >= len(e.state.sharers) {
		e.growTo(id)
	}
}

// growTo is ensure's slow path: the ground truth, then the snarfer sets.
func (e *ReadBroadcast) growTo(id blockid.ID) {
	e.state.growTo(id)
	e.snarfers = grow(e.snarfers, len(e.state.sharers))
}

// NewReadBroadcast returns a read-broadcast engine.
func NewReadBroadcast(cfg Config) (*ReadBroadcast, error) {
	core, err := newCore("ReadBroadcast", cfg)
	if err != nil {
		return nil, err
	}
	return &ReadBroadcast{engineCore: core}, nil
}

// Access implements Engine: intern the block and delegate to AccessID.
func (e *ReadBroadcast) Access(c int, kind trace.Kind, block uint64, first bool) events.Type {
	return e.AccessID(c, kind, block, e.intern(kind, block), first)
}

// AccessID implements IndexedEngine.
func (e *ReadBroadcast) AccessID(c int, kind trace.Kind, block uint64, id blockid.ID, first bool) events.Type {
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

func (e *ReadBroadcast) read(c int, block uint64, id blockid.ID, first bool) {
	e.ensure(id)
	if e.state.sharers[id].Contains(c) {
		e.event(events.ReadHit)
		e.touch(c, id)
		return
	}
	if first {
		e.event(events.ReadMissFirst)
		e.fillWithSnarf(c, block, id)
		return
	}
	switch {
	case e.state.dirty[id]:
		e.event(events.ReadMissDirty)
		e.state.dirty[id] = false
		e.state.owner[id] = -1
	case !e.state.sharers[id].Empty():
		e.event(events.ReadMissClean)
	default:
		e.event(events.ReadMissUncached)
	}
	// Memory is current (write-through); one bus read serves the
	// requester and every waiting snarfer.
	e.emit(bus.OpMemRead)
	e.fillWithSnarf(c, block, id)
}

func (e *ReadBroadcast) write(c int, block uint64, id blockid.ID, first bool) {
	e.ensure(id)
	if e.state.sharers[id].Contains(c) {
		e.touch(c, id)
		if e.state.dirty[id] {
			e.event(events.WriteHitDirty)
		} else {
			others := e.state.sharers[id].CountExcluding(c)
			e.stats.InvalFanout.Observe(others)
			if others == 0 {
				e.event(events.WriteHitCleanSole)
			} else {
				e.event(events.WriteHitCleanShared)
				e.stats.InvalEvents++
				e.stats.BroadcastInvals++
			}
		}
		e.emit(bus.OpWriteThrough)
		e.invalidateOthers(id, c)
		e.makeSole(id, c)
		return
	}
	if first {
		e.event(events.WriteMissFirst)
		e.makeSole(id, c)
		e.insertReplacer(c, block, id)
		return
	}
	switch {
	case e.state.dirty[id]:
		e.event(events.WriteMissDirty)
	case !e.state.sharers[id].Empty():
		e.event(events.WriteMissClean)
		e.stats.InvalFanout.Observe(e.state.sharers[id].Count())
		e.stats.InvalEvents++
		e.stats.BroadcastInvals++
	default:
		e.event(events.WriteMissUncached)
	}
	e.emit(bus.OpMemRead)
	e.emit(bus.OpWriteThrough)
	e.invalidateOthers(id, c)
	e.makeSole(id, c)
	e.insertReplacer(c, block, id)
}

// invalidateOthers drops every other copy, remembering the victims as
// snarfers for the next bus read of the block.
func (e *ReadBroadcast) invalidateOthers(id blockid.ID, c int) {
	sh := &e.state.sharers[id]
	for h := sh.Next(0); h >= 0; h = sh.Next(h + 1) {
		if h != c {
			e.snarfers[id].Add(h)
			e.removeFromReplacer(h, id)
		}
	}
	keep := sh.Contains(c)
	sh.Clear()
	if keep {
		sh.Add(c)
	}
}

func (e *ReadBroadcast) makeSole(id blockid.ID, c int) {
	e.state.sharers[id].Clear()
	e.state.sharers[id].Add(c)
	e.snarfers[id].Remove(c)
	e.state.dirty[id] = true
	e.state.owner[id] = int32(c)
}

// fillWithSnarf installs the block in cache c and, because the fill's data
// crossed the bus, in every waiting snarfer as well.
//
// The loop re-indexes the state on every step: dropVictim may grow the
// arrays (reallocating them), so no element pointer is held across it.
func (e *ReadBroadcast) fillWithSnarf(c int, block uint64, id blockid.ID) {
	e.state.sharers[id].Add(c)
	e.snarfers[id].Remove(c)
	for h := e.snarfers[id].Next(0); h >= 0; h = e.snarfers[id].Next(h + 1) {
		e.state.sharers[id].Add(h)
		if e.replacers != nil {
			// The snarfed copy occupies a frame in h's cache too.
			if victim, evicted := e.replacers[h].Insert(block, id); evicted {
				e.dropVictim(h, victim)
			}
		}
	}
	e.stats.Snarfs += uint64(e.snarfers[id].Count())
	e.snarfers[id].Clear()
	e.insertReplacer(c, block, id)
}

func (e *ReadBroadcast) insertReplacer(c int, block uint64, id blockid.ID) {
	if e.replacers == nil {
		return
	}
	if victim, evicted := e.replacers[c].Insert(block, id); evicted {
		e.dropVictim(c, victim)
	}
}

// dropVictim removes an evicted block from cache c's ground truth;
// write-through caches evict silently.
func (e *ReadBroadcast) dropVictim(c int, victim blockid.ID) {
	e.stats.Evictions++
	e.ensure(victim)
	e.state.sharers[victim].Remove(c)
	e.snarfers[victim].Remove(c)
	if e.state.dirty[victim] && int(e.state.owner[victim]) == c {
		e.state.dirty[victim] = false
		e.state.owner[victim] = -1
	}
}

// CheckInvariants implements Engine.
func (e *ReadBroadcast) CheckInvariants() error {
	// Fully evicted slots have dirty == false and empty snarfers, so they
	// never reach an error arm.
	for i := range e.state.sharers {
		if e.state.dirty[i] && e.state.sharers[i].Count() != 1 {
			return fmt.Errorf("ReadBroadcast: block %#x written-state with %d holders", e.tab.Block(blockid.ID(i)), e.state.sharers[i].Count())
		}
		var bad int = -1
		e.snarfers[i].ForEach(func(h int) bool {
			if e.state.sharers[i].Contains(h) {
				bad = h
				return false
			}
			return true
		})
		if bad >= 0 {
			return fmt.Errorf("ReadBroadcast: block %#x cache %d both holder and snarfer", e.tab.Block(blockid.ID(i)), bad)
		}
	}
	return nil
}

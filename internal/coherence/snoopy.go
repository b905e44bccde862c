package coherence

import (
	"fmt"

	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// SnoopyInval is a generic snoopy invalidation protocol engine. The paper's
// Section 5 observation — that protocols sharing a state-change model have
// identical event frequencies and differ only in per-event costs — makes
// the whole family expressible as one engine parameterised by a per-event
// operation table. The family's state-change model is the classic
// multiple-readers/single-writer policy, with invalidation delivered for
// free by bus snooping.
//
// Three of the paper's referenced protocols are provided on top of it:
//
//   - WTI (write-through with invalidate): every write is a one-word
//     transfer to memory; misses are always served by memory.
//   - Write-Once (Goodman): the first write to a block writes through
//     (snoopers invalidate); subsequent writes stay local in the cache
//     (the Reserved→Dirty transition), and dirty blocks are supplied via
//     write-back.
//   - MESI (Illinois / Papamarcos-Patel): an Exclusive state lets a write
//     hit on a sole clean copy proceed silently; resident blocks are
//     supplied cache-to-cache; writes to Shared copies broadcast one
//     invalidation cycle.
//
// Two more change the state-change model itself, each by one feature, so
// their event frequencies differ from the family's and they are always
// simulated, never priced:
//
//   - MOESI (owned): an Owned state permits dirty sharing. A read miss to
//     a written block is supplied by its owner, which keeps the block
//     written instead of writing it back.
//   - Read broadcast (snarf): caches whose copies a write invalidated
//     refill off the block's next bus read.
type SnoopyInval struct {
	engineCore
	// table is the scheme's per-event operations, one of the tables in
	// costs.go: classify reads it on every reference and price reads it
	// to cost a basis's event tallies.
	table opTable
	// owned is MOESI's Owned state. A block can then be written and
	// shared at once: dirty means memory is stale, and owner is the
	// holder responsible for it. Every read miss to such a block is
	// rm-blk-drty, however many readers have joined since the write.
	owned bool
}

// newSnoopyInval assembles a snoopy invalidation engine around its
// per-event operation table; writeThrough caches evict written blocks
// without a write-back.
func newSnoopyInval(name string, table opTable, writeThrough bool, cfg Config) (*SnoopyInval, error) {
	core, err := newCore(name, cfg)
	if err != nil {
		return nil, err
	}
	core.writeThrough = writeThrough
	return &SnoopyInval{engineCore: core, table: table}, nil
}

// NewWTI returns the Write-Through-With-Invalidate engine: all writes go to
// memory (one word each), all misses are served by memory (which is never
// stale), and other copies are invalidated by snooping the write for free.
// Write misses allocate, keeping the state-change model — and therefore
// the Table 4 event frequencies — identical to Dir0B's, as Section 5
// observes.
func NewWTI(cfg Config) (*SnoopyInval, error) {
	return newSnoopyInval("WTI", wtiOps, true, cfg)
}

// NewWriteOnce returns Goodman's write-once protocol: the first write to a
// resident block writes through one word (and snooping invalidates other
// copies); later writes dirty the block locally for free; a block dirty in
// another cache is supplied by write-back.
func NewWriteOnce(cfg Config) (*SnoopyInval, error) {
	return newSnoopyInval("WriteOnce", writeOnceOps, false, cfg)
}

// NewMESI returns the Illinois protocol: resident blocks are supplied
// cache-to-cache (dirty ones with a concurrent write-back), an Exclusive
// state makes writes to sole clean copies free, and writes to Shared
// copies cost one broadcast invalidation cycle.
func NewMESI(cfg Config) (*SnoopyInval, error) {
	return newSnoopyInval("MESI", mesiOps, false, cfg)
}

// NewMOESI returns the five-state MOESI protocol: MESI plus an Owned state
// that permits dirty sharing. When another cache reads a modified block,
// the owner supplies it cache-to-cache and keeps responsibility for the
// (still stale) memory copy instead of writing back; the write-back
// happens only when the owner evicts the block. On migratory and
// producer-consumer data this removes the write-back from every hand-off
// that MESI pays for.
func NewMOESI(cfg Config) (*SnoopyInval, error) {
	e, err := newSnoopyInval("MOESI", moesiOps, false, cfg)
	if err != nil {
		return nil, err
	}
	e.owned = true
	return e, nil
}

// NewReadBroadcast returns the Rudolph–Segall read-broadcast protocol (the
// paper's reference [6]): WTI in which a cache whose copy was invalidated
// snarfs the data the next time any other cache reads the block over the
// bus — the read reply is a broadcast, so the refill is free. One bus read
// after a write repairs every invalidated copy at once, which collapses
// the read-miss chains invalidation protocols otherwise suffer on widely
// read-shared data.
func NewReadBroadcast(cfg Config) (*SnoopyInval, error) {
	e, err := newSnoopyInval("ReadBroadcast", wtiOps, true, cfg)
	if err != nil {
		return nil, err
	}
	e.state.snarf = true
	return e, nil
}

// mrsw reports whether e runs the family's plain state-change model, the
// one a basis's events can price.
func (e *SnoopyInval) mrsw() bool { return !e.owned && !e.state.snarf }

// classify records the reference's Table 4 classification and emits its
// operations from the table.
func (e *SnoopyInval) classify(t events.Type) {
	e.event(t)
	for _, op := range e.table[t] {
		e.emit(op)
	}
}

// Access implements Engine: intern the block and delegate to AccessID.
func (e *SnoopyInval) Access(c int, kind trace.Kind, block uint64, first bool) events.Type {
	return e.AccessID(c, kind, block, e.intern(kind, block), first)
}

// AccessID implements IndexedEngine.
func (e *SnoopyInval) AccessID(c int, kind trace.Kind, block uint64, id blockid.ID, first bool) events.Type {
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

func (e *SnoopyInval) read(c int, block uint64, id blockid.ID, first bool) {
	e.state.ensure(id)
	st := &e.state
	if st.sharers[id].Contains(c) {
		e.classify(events.ReadHit)
		e.touch(c, id)
		return
	}
	if first {
		e.classify(events.ReadMissFirst)
		e.fill(c, block, id)
		return
	}
	switch {
	case st.dirty[id]:
		e.classify(events.ReadMissDirty)
		if !e.owned {
			st.dirty[id] = false
			st.owner[id] = -1
		}
	case !st.sharers[id].Empty():
		e.classify(events.ReadMissClean)
	default:
		e.classify(events.ReadMissUncached)
	}
	e.fill(c, block, id)
}

func (e *SnoopyInval) write(c int, block uint64, id blockid.ID, first bool) {
	e.state.ensure(id)
	st := &e.state
	if st.sharers[id].Contains(c) {
		e.touch(c, id)
		others := st.sharers[id].CountExcluding(c)
		switch {
		case st.dirty[id] && others > 0:
			// An Owned block being rewritten: classified like a
			// dirty hit, but the sharers must still go — the one
			// event whose operations the owned feature overrides.
			e.stats.InvalFanout.Observe(others)
			e.event(events.WriteHitDirty)
			e.emit(bus.OpBroadcastInvalidate)
			e.stats.InvalEvents++
			e.stats.BroadcastInvals++
		case st.dirty[id]:
			e.classify(events.WriteHitDirty)
		case others > 0:
			e.stats.InvalFanout.Observe(others)
			e.classify(events.WriteHitCleanShared)
			e.stats.InvalEvents++
			e.stats.BroadcastInvals++
		default:
			if !e.owned {
				e.stats.InvalFanout.Observe(0)
			}
			e.classify(events.WriteHitCleanSole)
		}
		e.own(id, c)
		return
	}
	if first {
		e.classify(events.WriteMissFirst)
		e.own(id, c)
		e.insert(c, block, id)
		return
	}
	switch {
	case st.dirty[id]:
		e.classify(events.WriteMissDirty)
	case !st.sharers[id].Empty():
		e.classify(events.WriteMissClean)
		if !e.owned {
			e.stats.InvalFanout.Observe(st.sharers[id].Count())
			e.stats.InvalEvents++
			e.stats.BroadcastInvals++
		}
	default:
		e.classify(events.WriteMissUncached)
	}
	e.own(id, c)
	e.insert(c, block, id)
}

// own makes cache c the block's sole holder, in the written state.
// Snooping delivers the invalidation of every other copy for free; under
// snarf the invalidated caches wait to refill off the block's next bus
// read.
func (e *SnoopyInval) own(id blockid.ID, c int) {
	st := &e.state
	sh := &st.sharers[id]
	for h := sh.Next(0); h >= 0; h = sh.Next(h + 1) {
		if h != c {
			e.removeFromReplacer(h, id)
			if st.snarf {
				st.snarfers[id].Add(h)
			}
		}
	}
	sh.Clear()
	sh.Add(c)
	if st.snarf {
		st.snarfers[id].Remove(c)
	}
	st.dirty[id] = true
	st.owner[id] = int32(c)
}

// fill installs the block in cache c and, under snarf, because the fill's
// data crossed the bus, in every waiting snarfer as well. The snarf loop
// re-indexes the state on every step: insert may grow the arrays
// (reallocating them), so no element pointer is held across it.
func (e *SnoopyInval) fill(c int, block uint64, id blockid.ID) {
	e.state.sharers[id].Add(c)
	if e.state.snarf {
		e.state.snarfers[id].Remove(c)
		for h := e.state.snarfers[id].Next(0); h >= 0; h = e.state.snarfers[id].Next(h + 1) {
			// The snarfed copy occupies a frame in h's cache too.
			e.state.sharers[id].Add(h)
			e.insert(h, block, id)
		}
		e.stats.Snarfs += uint64(e.state.snarfers[id].Count())
		e.state.snarfers[id].Clear()
	}
	e.insert(c, block, id)
}

// CheckInvariants implements Engine.
func (e *SnoopyInval) CheckInvariants() error {
	// Empty slots always have dirty == false (every path that drops the
	// last holder clears it) and no snarfers, so unused ids never reach
	// the error arms.
	st := &e.state
	for i := range st.sharers {
		sh := &st.sharers[i]
		switch {
		case !st.dirty[i]:
		case e.owned:
			if !sh.Contains(int(st.owner[i])) {
				return fmt.Errorf("%s: block %#x stale but owner %d holds no copy", e.name, e.tab.Block(blockid.ID(i)), st.owner[i])
			}
		case sh.Count() != 1:
			return fmt.Errorf("%s: block %#x written-state with %d holders", e.name, e.tab.Block(blockid.ID(i)), sh.Count())
		default:
			if sole, _ := sh.Sole(); sole != int(st.owner[i]) {
				return fmt.Errorf("%s: block %#x owner %d not the holder", e.name, e.tab.Block(blockid.ID(i)), st.owner[i])
			}
		}
		if !st.snarf {
			continue
		}
		for h := st.snarfers[i].Next(0); h >= 0; h = st.snarfers[i].Next(h + 1) {
			if sh.Contains(h) {
				return fmt.Errorf("%s: block %#x cache %d both holder and snarfer", e.name, e.tab.Block(blockid.ID(i)), h)
			}
		}
	}
	return nil
}

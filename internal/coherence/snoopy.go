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
type SnoopyInval struct {
	engineCore
	// table is the scheme's per-event operations, one of the tables in
	// costs.go: classify reads it on every reference and price reads it
	// to cost a basis's event tallies.
	table opTable
	// writeBackOnEvict controls finite-cache behaviour: copy-back
	// protocols flush dirty victims; write-through protocols evict
	// silently (memory is already current).
	writeBackOnEvict bool
}

// newSnoopyInval assembles a snoopy invalidation engine around its
// per-event operation table.
func newSnoopyInval(name string, table opTable, writeBackOnEvict bool, cfg Config) (*SnoopyInval, error) {
	core, err := newCore(name, cfg)
	if err != nil {
		return nil, err
	}
	return &SnoopyInval{engineCore: core, table: table, writeBackOnEvict: writeBackOnEvict}, nil
}

// NewWTI returns the Write-Through-With-Invalidate engine: all writes go to
// memory (one word each), all misses are served by memory (which is never
// stale), and other copies are invalidated by snooping the write for free.
// Write misses allocate, keeping the state-change model — and therefore
// the Table 4 event frequencies — identical to Dir0B's, as Section 5
// observes.
func NewWTI(cfg Config) (*SnoopyInval, error) {
	return newSnoopyInval("WTI", wtiOps, false, cfg)
}

// NewWriteOnce returns Goodman's write-once protocol: the first write to a
// resident block writes through one word (and snooping invalidates other
// copies); later writes dirty the block locally for free; a block dirty in
// another cache is supplied by write-back.
func NewWriteOnce(cfg Config) (*SnoopyInval, error) {
	return newSnoopyInval("WriteOnce", writeOnceOps, true, cfg)
}

// NewMESI returns the Illinois protocol: resident blocks are supplied
// cache-to-cache (dirty ones with a concurrent write-back), an Exclusive
// state makes writes to sole clean copies free, and writes to Shared
// copies cost one broadcast invalidation cycle.
func NewMESI(cfg Config) (*SnoopyInval, error) {
	return newSnoopyInval("MESI", mesiOps, true, cfg)
}

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
		st.dirty[id] = false
		st.owner[id] = -1
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
		if st.dirty[id] {
			e.classify(events.WriteHitDirty)
		} else {
			others := st.sharers[id].CountExcluding(c)
			e.stats.InvalFanout.Observe(others)
			if others == 0 {
				e.classify(events.WriteHitCleanSole)
			} else {
				e.classify(events.WriteHitCleanShared)
				e.stats.InvalEvents++
				e.stats.BroadcastInvals++
			}
		}
		// Snooping delivers the invalidation of every other copy for free.
		e.keepOnly(&st.sharers[id], id, c)
		e.makeSole(id, c)
		return
	}
	if first {
		e.classify(events.WriteMissFirst)
		e.makeSole(id, c)
		e.insertReplacer(c, block, id)
		return
	}
	switch {
	case st.dirty[id]:
		e.classify(events.WriteMissDirty)
	case !st.sharers[id].Empty():
		e.classify(events.WriteMissClean)
		e.stats.InvalFanout.Observe(st.sharers[id].Count())
		e.stats.InvalEvents++
		e.stats.BroadcastInvals++
	default:
		e.classify(events.WriteMissUncached)
	}
	e.keepOnly(&st.sharers[id], id, c)
	e.makeSole(id, c)
	e.insertReplacer(c, block, id)
}

func (e *SnoopyInval) makeSole(id blockid.ID, c int) {
	st := &e.state
	st.sharers[id].Clear()
	st.sharers[id].Add(c)
	st.dirty[id] = true
	st.owner[id] = int32(c)
}

func (e *SnoopyInval) fill(c int, block uint64, id blockid.ID) {
	e.state.sharers[id].Add(c)
	e.insertReplacer(c, block, id)
}

func (e *SnoopyInval) insertReplacer(c int, block uint64, id blockid.ID) {
	if e.replacers == nil {
		return
	}
	victim, evicted := e.replacers[c].Insert(block, id)
	if !evicted {
		return
	}
	e.stats.Evictions++
	e.state.ensure(victim)
	st := &e.state
	if st.sharers[victim].Empty() {
		return
	}
	if st.dirty[victim] && int(st.owner[victim]) == c {
		if e.writeBackOnEvict {
			e.emit(bus.OpWriteBack)
			e.stats.EvictionWriteBacks++
		}
		st.dirty[victim] = false
		st.owner[victim] = -1
	}
	st.sharers[victim].Remove(c)
}

// CheckInvariants implements Engine.
func (e *SnoopyInval) CheckInvariants() error {
	// Empty slots always have dirty == false (every path that drops the
	// last holder clears it), so unused ids never reach the error arms.
	for i := range e.state.sharers {
		if !e.state.dirty[i] {
			continue
		}
		sh := &e.state.sharers[i]
		if sh.Count() != 1 {
			return fmt.Errorf("%s: block %#x written-state with %d holders", e.name, e.tab.Block(blockid.ID(i)), sh.Count())
		}
		if sole, _ := sh.Sole(); sole != int(e.state.owner[i]) {
			return fmt.Errorf("%s: block %#x owner %d not the holder", e.name, e.tab.Block(blockid.ID(i)), e.state.owner[i])
		}
	}
	return nil
}

package coherence

import (
	"fmt"

	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/cache"
	"dirsim/internal/directory"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// DirEngine is the general directory-based invalidation protocol engine.
// Instantiated with different directory stores it realises the whole
// Dir_i{B,NB} design space of Section 2:
//
//	Dir1NB   LimitedPointer(1, no broadcast)  — at most one copy ever
//	Dir_iNB  LimitedPointer(i, no broadcast)  — at most i copies
//	Dir_nNB  FullMap                          — sequential invalidates
//	Dir0B    TwoBit                           — broadcast invalidates
//	Dir_iB   LimitedPointer(i, broadcast bit) — directed then broadcast
//	coded    CodedSet                         — limited broadcast superset
//
// The state-change model is the classic multiple-readers/single-writer
// policy: clean blocks may be cached anywhere the store permits, a dirty
// block lives in exactly one cache, and a write removes all other copies.
type DirEngine struct {
	engineCore
	store directory.Store

	// exclusive marks Dir1NB: a block lives in at most one cache, so a
	// write hit needs no directory query at all and misses carry their
	// single invalidation with the write-back/fetch request.
	exclusive bool

	// entries is the sparse-directory entry tracker (nil when the
	// directory is memory-resident).
	entries *cache.SetAssoc

	// scratch is the reusable buffer handed to store.Targets on the
	// per-reference path; it reaches steady-state capacity after the
	// first few invalidations and never allocates again.
	scratch []int

	// missSharers is the true sharer count at each WriteMissClean.
	// Stats.InvalFanout counts those writes and the write hits to clean
	// blocks together; subtracting this tally splits it by event, which
	// is what pricing Dir0B and Dir_iB from this engine needs (priced.go).
	// It stays outside Stats, so results keep their wire form.
	missSharers trace.Histogram
}

// NewDirEngine assembles a directory engine around an arbitrary store. Most
// callers want one of the named constructors below.
func NewDirEngine(name string, store directory.Store, cfg Config) (*DirEngine, error) {
	core, err := newCore(name, cfg)
	if err != nil {
		return nil, err
	}
	e := &DirEngine{engineCore: core, store: store}
	if lp, ok := store.(*directory.LimitedPointer); ok {
		e.exclusive = lp.Pointers() == 1 && !lp.Broadcast()
	}
	if tg, ok := store.(*directory.Tang); ok {
		// Tang's duplicate-directory search costs n directory accesses.
		e.probes = tg.Probes()
	}
	if cfg.DirEntries > 0 {
		if e.entries, err = cache.NewLRU(cfg.DirEntries); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// NewDir1NB returns the paper's most restrictive scheme: a single pointer,
// no broadcast, so a block resides in at most one cache at a time.
func NewDir1NB(cfg Config) (*DirEngine, error) {
	st, err := directory.NewLimitedPointer(1, cfg.Caches, false)
	if err != nil {
		return nil, err
	}
	return NewDirEngine("Dir1NB", st, cfg)
}

// NewDiriNB returns Dir_iNB: up to i simultaneous copies, maintained by
// invalidating the oldest copy when a pointer is needed — Section 6's
// "trades off a slightly increased miss rate for avoiding broadcasts
// altogether". NewDiriNB(1, cfg) is Dir1NB.
func NewDiriNB(i int, cfg Config) (*DirEngine, error) {
	st, err := directory.NewLimitedPointer(i, cfg.Caches, false)
	if err != nil {
		return nil, err
	}
	return NewDirEngine(fmt.Sprintf("Dir%dNB", i), st, cfg)
}

// NewDirnNB returns the Censier–Feautrier full-map scheme: a presence bit
// per cache, invalidations delivered as sequential directed messages.
func NewDirnNB(cfg Config) (*DirEngine, error) {
	return NewDirEngine("DirnNB", directory.NewFullMap(cfg.Caches), cfg)
}

// NewTang returns Tang's scheme: semantically the full map, but the
// directory is organised as duplicates of every cache directory, so each
// lookup searches n tag stores (reflected in Stats.DirAccesses).
func NewTang(cfg Config) (*DirEngine, error) {
	return NewDirEngine("Tang", directory.NewTang(cfg.Caches), cfg)
}

// NewDir0B returns the Archibald–Baer scheme: two state bits per block, no
// cache indices, broadcast invalidations and write-back requests.
func NewDir0B(cfg Config) (*DirEngine, error) {
	return NewDirEngine("Dir0B", directory.NewTwoBit(), cfg)
}

// NewDiriB returns Dir_iB: i pointers plus a broadcast bit. While at most i
// caches hold the block, invalidations are directed; beyond that the
// broadcast bit is set and a (possibly expensive) broadcast is used.
func NewDiriB(i int, cfg Config) (*DirEngine, error) {
	st, err := directory.NewLimitedPointer(i, cfg.Caches, true)
	if err != nil {
		return nil, err
	}
	return NewDirEngine(fmt.Sprintf("Dir%dB", i), st, cfg)
}

// NewCodedSet returns the Section 6 coded-set scheme: a 2·log2(n)-bit
// superset code per block; invalidations are directed to every cache the
// code denotes ("limited broadcast"), some of which hold no copy.
func NewCodedSet(cfg Config) (*DirEngine, error) {
	st, err := directory.NewCodedSet(cfg.Caches)
	if err != nil {
		return nil, err
	}
	return NewDirEngine("CodedSet", st, cfg)
}

// ResetStats implements Engine: the tallies, missSharers included, are
// zeroed and the protocol state is kept.
func (e *DirEngine) ResetStats() {
	e.engineCore.ResetStats()
	e.missSharers = trace.Histogram{}
}

// Access implements Engine: intern the block and delegate to AccessID.
func (e *DirEngine) Access(c int, kind trace.Kind, block uint64, first bool) events.Type {
	return e.AccessID(c, kind, block, e.intern(kind, block), first)
}

// AccessID implements IndexedEngine.
func (e *DirEngine) AccessID(c int, kind trace.Kind, block uint64, id blockid.ID, first bool) events.Type {
	e.begin(c)
	switch kind {
	case trace.Instr:
		// Instructions cause no consistency traffic (Section 4).
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

func (e *DirEngine) read(c int, block uint64, id blockid.ID, first bool) {
	e.state.ensure(id)
	st := &e.state
	if st.sharers[id].Contains(c) {
		e.event(events.ReadHit)
		e.touch(c, id)
		return
	}
	if first {
		e.event(events.ReadMissFirst)
		e.fill(c, block, id)
		return
	}
	// The miss request's address send doubles as the directory lookup.
	e.emit(bus.OpDirCheckOverlapped)
	switch {
	case st.dirty[id]:
		e.event(events.ReadMissDirty)
		if e.exclusive {
			// Dir1NB: one notification tells the owner to write the
			// block back and invalidate it; the requester receives
			// the data with the write-back.
			e.emit(bus.OpInvalidate)
			e.emit(bus.OpWriteBack)
			e.invalidateCopy(id, int(st.owner[id]))
		} else {
			// The directory asks the owner to flush. Directed
			// organisations send one message; Dir0B broadcasts the
			// request. The owner keeps a clean copy.
			e.emitRequest(id)
			e.emit(bus.OpWriteBack)
		}
		st.dirty[id] = false
		st.owner[id] = -1
	case !st.sharers[id].Empty():
		e.event(events.ReadMissClean)
		e.emit(bus.OpMemRead)
	default:
		e.event(events.ReadMissUncached)
		e.emit(bus.OpMemRead)
	}
	e.fill(c, block, id)
}

func (e *DirEngine) write(c int, block uint64, id blockid.ID, first bool) {
	e.state.ensure(id)
	st := &e.state
	if st.sharers[id].Contains(c) {
		e.touch(c, id)
		if st.dirty[id] {
			// dirty implies sole owner; a hit means that owner is c.
			e.event(events.WriteHitDirty)
			return
		}
		others := st.sharers[id].CountExcluding(c)
		e.stats.InvalFanout.Observe(others)
		if others == 0 {
			e.event(events.WriteHitCleanSole)
			if !e.exclusive {
				// The directory must confirm no other copy exists
				// (this is the access Dir0B's "clean in exactly one
				// cache" state answers without a broadcast).
				e.emit(bus.OpDirCheck)
			}
		} else {
			e.event(events.WriteHitCleanShared)
			e.emit(bus.OpDirCheck)
			e.invalidateOthers(id, c)
		}
		e.takeExclusive(c, block, id)
		return
	}
	if first {
		e.event(events.WriteMissFirst)
		e.takeExclusive(c, block, id)
		return
	}
	e.emit(bus.OpDirCheckOverlapped)
	switch {
	case st.dirty[id]:
		e.event(events.WriteMissDirty)
		// Flush the old owner's copy and invalidate it; the requester
		// receives the data with the write-back.
		if e.exclusive {
			e.emit(bus.OpInvalidate)
		} else {
			e.emitRequest(id)
		}
		e.emit(bus.OpWriteBack)
		e.invalidateCopy(id, int(st.owner[id]))
		st.dirty[id] = false
	case !st.sharers[id].Empty():
		e.event(events.WriteMissClean)
		n := st.sharers[id].Count()
		e.stats.InvalFanout.Observe(n)
		e.missSharers.Observe(n)
		e.emit(bus.OpMemRead)
		e.invalidateOthers(id, c)
	default:
		e.event(events.WriteMissUncached)
		e.emit(bus.OpMemRead)
	}
	e.takeExclusive(c, block, id)
}

// takeExclusive installs c as the sole, dirty holder of block after a
// write, updating ground truth, directory and (in finite mode) residency.
func (e *DirEngine) takeExclusive(c int, block uint64, id blockid.ID) {
	e.ensureEntry(block, id)
	e.store.SetSole(id, c)
	st := &e.state
	st.sharers[id].Clear()
	st.sharers[id].Add(c)
	st.dirty[id] = true
	st.owner[id] = int32(c)
	e.insert(c, block, id)
}

// emitRequest sends the write-back request for a dirty block to its owner:
// a directed message when the directory knows the owner, a broadcast when
// it does not (Dir0B "relies on broadcasts to perform invalidates and
// write-back requests").
func (e *DirEngine) emitRequest(id blockid.ID) {
	var bcast bool
	e.scratch, bcast = e.store.Targets(e.scratch[:0], id, -1)
	if bcast {
		e.emit(bus.OpBroadcastInvalidate)
	} else {
		e.emit(bus.OpInvalidate)
	}
}

// invalidateOthers removes every copy of block except cache c's, using the
// delivery mechanism the directory organisation supports, and keeps the
// fan-out statistics.
func (e *DirEngine) invalidateOthers(id blockid.ID, c int) {
	e.stats.InvalEvents++
	targets, bcast := e.store.Targets(e.scratch[:0], id, c)
	e.scratch = targets
	sh := &e.state.sharers[id]
	if bcast {
		e.stats.BroadcastInvals++
		e.emit(bus.OpBroadcastInvalidate)
	} else {
		for _, t := range targets {
			e.stats.DirectedInvals++
			e.emit(bus.OpInvalidate)
			if !sh.Contains(t) {
				// A coded-set superset member that holds no copy.
				e.stats.WastedInvals++
			}
		}
	}
	// Ground truth: all other copies are gone.
	e.keepOnly(sh, id, c)
}

// invalidateCopy removes a single cache's copy (directed invalidation).
func (e *DirEngine) invalidateCopy(id blockid.ID, holder int) {
	if holder < 0 {
		return
	}
	e.state.sharers[id].Remove(holder)
	e.store.Remove(id, holder)
	e.removeFromReplacer(holder, id)
}

// ensureEntry reserves a sparse-directory entry for block, evicting the
// least-recently-used entry if the directory is full. The displaced
// block's copies are all invalidated (written back first when dirty) so no
// cached data outlives its directory entry.
func (e *DirEngine) ensureEntry(block uint64, id blockid.ID) {
	if e.entries == nil {
		return
	}
	victim, evicted := e.entries.Insert(block, id)
	if !evicted {
		return
	}
	e.stats.DirEntryEvictions++
	e.state.ensure(victim)
	st := &e.state
	if st.sharers[victim].Empty() {
		e.store.Clear(victim)
		return
	}
	if st.dirty[victim] {
		e.emit(bus.OpWriteBack)
		st.dirty[victim] = false
		st.owner[victim] = -1
	}
	targets, bcast := e.store.Targets(e.scratch[:0], victim, -1)
	e.scratch = targets
	if bcast {
		e.emit(bus.OpBroadcastInvalidate)
		e.stats.BroadcastInvals++
	} else {
		for range targets {
			e.emit(bus.OpInvalidate)
			e.stats.DirectedInvals++
		}
	}
	sh := &st.sharers[victim]
	for h := sh.Next(0); h >= 0; h = sh.Next(h + 1) {
		e.removeFromReplacer(h, victim)
	}
	sh.Clear()
	e.store.Clear(victim)
}

// fill gives cache c a copy of block: directory first (which may force a
// pointer eviction in Dir_iNB), then ground truth, then the finite-cache
// replacer (which may evict a victim block).
func (e *DirEngine) fill(c int, block uint64, id blockid.ID) {
	e.ensureEntry(block, id)
	if victim := e.store.Add(id, c); victim >= 0 {
		// Dir_iNB freed a pointer by invalidating an existing copy.
		e.stats.PointerEvictions++
		e.stats.InvalEvents++
		e.stats.DirectedInvals++
		e.emit(bus.OpInvalidate)
		st := &e.state
		if st.dirty[id] && int(st.owner[id]) == victim {
			// Cannot happen under the protocol (a dirty block has
			// one holder and Add follows a flush), but write back
			// defensively rather than lose data silently.
			e.emit(bus.OpWriteBack)
			st.dirty[id] = false
			st.owner[id] = -1
		}
		st.sharers[id].Remove(victim)
		e.removeFromReplacer(victim, id)
	}
	e.state.sharers[id].Add(c)
	e.insert(c, block, id)
}

// touch refreshes LRU recency in finite mode and keeps the block's sparse
// directory entry warm. The no-op infinite-mode check stays in this thin
// wrapper so hit paths inline it; the real work is outlined.
func (e *DirEngine) touch(c int, id blockid.ID) {
	if e.replacers == nil && e.entries == nil {
		return
	}
	e.touchFinite(c, id)
}

func (e *DirEngine) touchFinite(c int, id blockid.ID) {
	e.engineCore.touch(c, id)
	if e.entries != nil {
		e.entries.Touch(id)
	}
}

// insert records residency in finite mode through the core's eviction
// path, then sends the directory a replacement hint for a dropped victim.
func (e *DirEngine) insert(c int, block uint64, id blockid.ID) {
	if victim, dropped := e.engineCore.insert(c, block, id); dropped {
		e.store.Remove(victim, c)
	}
}

// CheckInvariants implements Engine.
func (e *DirEngine) CheckInvariants() error {
	for i := range e.state.sharers {
		id := blockid.ID(i)
		sh := &e.state.sharers[i]
		n := sh.Count()
		if n == 0 {
			// No cached copy — the absent entry of the map-keyed
			// representation. The directory may remember such blocks
			// arbitrarily (TwoBit and CodedSet never forget holders),
			// exactly as it could for deleted map entries.
			continue
		}
		block := e.tab.Block(id)
		if e.entries != nil && !e.entries.Contains(id) {
			return fmt.Errorf("%s: block %#x cached without a directory entry", e.name, block)
		}
		if e.state.dirty[i] {
			if n != 1 {
				return fmt.Errorf("%s: block %#x dirty with %d holders", e.name, block, n)
			}
			if sole, _ := sh.Sole(); sole != int(e.state.owner[i]) {
				return fmt.Errorf("%s: block %#x owner %d not the holder", e.name, block, e.state.owner[i])
			}
		}
		cnt, exact := e.store.Count(id)
		if exact && cnt != n {
			return fmt.Errorf("%s: block %#x directory says %d holders, truth %d", e.name, block, cnt, n)
		}
		targets, bcast := e.store.Targets(nil, id, -1)
		if !bcast {
			// Directed delivery must cover every true holder.
			covered := map[int]bool{}
			for _, t := range targets {
				covered[t] = true
			}
			var missing int = -1
			sh.ForEach(func(h int) bool {
				if !covered[h] {
					missing = h
					return false
				}
				return true
			})
			if missing >= 0 {
				return fmt.Errorf("%s: block %#x holder %d not covered by directory targets", e.name, block, missing)
			}
		}
		if e.exclusive && n > 1 {
			return fmt.Errorf("%s: block %#x has %d copies under the exclusive scheme", e.name, block, n)
		}
		if lp, ok := e.store.(*directory.LimitedPointer); ok && !lp.Broadcast() && n > lp.Pointers() {
			return fmt.Errorf("%s: block %#x has %d copies, pointer budget %d", e.name, block, n, lp.Pointers())
		}
	}
	return nil
}

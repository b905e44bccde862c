package coherence

import (
	"fmt"

	"dirsim/internal/bitset"
	"dirsim/internal/blockid"
	"dirsim/internal/bus"
	"dirsim/internal/events"
	"dirsim/internal/trace"
)

// Competitive is a competitive-update protocol: Dragon's update mechanism
// with a self-invalidation threshold. Each cached copy counts the updates
// it has absorbed since its processor last touched the block; at the
// threshold the copy drops out instead of being updated again.
//
// Pure update protocols never unshare: one stale sharer turns every later
// write into bus traffic forever (the pathology is easy to provoke in this
// simulator — migrate a process once under Dragon and its old cache is
// updated until the end of time). Competitive update bounds the damage at
// k wasted updates per departed sharer, interpolating between Dragon
// (k = ∞) and an invalidation protocol (k = 0's limit). The threshold
// trades update traffic against re-miss traffic, the classic competitive
// argument (pay at most a constant factor over the offline-optimal
// choice).
type Competitive struct {
	engineCore
	threshold int
	st        competitiveStates
}

// competitiveStates tracks, in parallel arrays indexed by block id:
// holders, staleness of memory, and each holder's count of updates
// absorbed since its last local access. The counters are a flattened
// [id × caches] matrix; a non-holder's counter is always zero (the map
// representation this replaced deleted the entry instead), and a fully
// evicted block has memStale == false, so empty slots are
// indistinguishable from absent map entries.
type competitiveStates struct {
	sharers  []bitset.Set
	memStale []bool
	unused   []int32 // holder's updates since last local touch, [id*caches+c]
}

func (t *competitiveStates) ensure(id blockid.ID, caches int) {
	if int(id) < len(t.sharers) {
		return
	}
	n := int(id) + 1 + len(t.sharers)
	t.sharers, t.memStale = grow(t.sharers, n), grow(t.memStale, n)
	t.unused = grow(t.unused, n*caches)
}

// NewCompetitive returns a competitive-update engine that self-invalidates
// a copy after threshold consecutive foreign updates. threshold must be at
// least 1.
func NewCompetitive(threshold int, cfg Config) (*Competitive, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("coherence: competitive threshold %d must be at least 1", threshold)
	}
	core, err := newCore(fmt.Sprintf("Competitive%d", threshold), cfg)
	if err != nil {
		return nil, err
	}
	return &Competitive{engineCore: core, threshold: threshold}, nil
}

// Threshold returns the self-invalidation threshold k.
func (e *Competitive) Threshold() int { return e.threshold }

// Access implements Engine: intern the block and delegate to AccessID.
func (e *Competitive) Access(c int, kind trace.Kind, block uint64, first bool) events.Type {
	return e.AccessID(c, kind, block, e.intern(kind, block), first)
}

// AccessID implements IndexedEngine.
func (e *Competitive) AccessID(c int, kind trace.Kind, block uint64, id blockid.ID, first bool) events.Type {
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

func (e *Competitive) read(c int, block uint64, id blockid.ID, first bool) {
	e.st.ensure(id, e.cfg.Caches)
	if e.st.sharers[id].Contains(c) {
		e.event(events.ReadHit)
		e.st.unused[int(id)*e.cfg.Caches+c] = 0
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
		e.event(events.ReadMissDirty)
		e.emit(bus.OpCacheRead)
	case !e.st.sharers[id].Empty():
		e.event(events.ReadMissClean)
		e.emit(bus.OpMemRead)
	default:
		e.event(events.ReadMissUncached)
		e.emit(bus.OpMemRead)
	}
	e.fill(c, block, id)
}

func (e *Competitive) write(c int, block uint64, id blockid.ID, first bool) {
	e.st.ensure(id, e.cfg.Caches)
	if e.st.sharers[id].Contains(c) {
		e.touch(c, id)
		e.st.unused[int(id)*e.cfg.Caches+c] = 0
		if e.st.sharers[id].ContainsOther(c) {
			e.event(events.WriteHitUpdate)
			e.emit(bus.OpWriteUpdate)
			e.chargeUpdate(id, c)
		} else {
			e.event(events.WriteHitLocal)
		}
		e.st.memStale[id] = true
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
	e.st.unused[int(id)*e.cfg.Caches+c] = 0
	if hadSharers {
		e.emit(bus.OpWriteUpdate)
		e.chargeUpdate(id, c)
	}
	e.st.memStale[id] = true
}

// chargeUpdate increments every other holder's unused counter and drops
// copies that reach the threshold. If the last remaining copy with a stale
// memory would be the writer's, memory stays stale (the writer holds it).
func (e *Competitive) chargeUpdate(id blockid.ID, writer int) {
	base := int(id) * e.cfg.Caches
	// Dropping h mid-loop is safe: Next only looks forward from h+1.
	for h := e.st.sharers[id].Next(0); h >= 0; h = e.st.sharers[id].Next(h + 1) {
		if h == writer {
			continue
		}
		e.st.unused[base+h]++
		if int(e.st.unused[base+h]) < e.threshold {
			continue
		}
		e.st.sharers[id].Remove(h)
		e.st.unused[base+h] = 0
		e.stats.PointerEvictions++ // reuse the "copies dropped by policy" counter
		e.removeFromReplacer(h, id)
	}
}

func (e *Competitive) fill(c int, block uint64, id blockid.ID) {
	e.st.sharers[id].Add(c)
	e.st.unused[int(id)*e.cfg.Caches+c] = 0
	if e.replacers == nil {
		return
	}
	victim, evicted := e.replacers[c].Insert(block, id)
	if !evicted {
		return
	}
	e.stats.Evictions++
	e.st.ensure(victim, e.cfg.Caches)
	e.st.sharers[victim].Remove(c)
	e.st.unused[int(victim)*e.cfg.Caches+c] = 0
	if e.st.sharers[victim].Empty() && e.st.memStale[victim] {
		e.emit(bus.OpWriteBack)
		e.stats.EvictionWriteBacks++
		e.st.memStale[victim] = false
	}
}

// CheckInvariants implements Engine.
func (e *Competitive) CheckInvariants() error {
	// A dropped or evicted copy's counter is zeroed where the map
	// representation deleted it, so a non-zero counter for a non-holder is
	// genuine corruption, and unused slots (all zero) trip nothing.
	for i := range e.st.sharers {
		id := blockid.ID(i)
		if e.st.memStale[i] && e.st.sharers[i].Empty() {
			return fmt.Errorf("%s: block %#x stale with no cached copy", e.name, e.tab.Block(id))
		}
		base := i * e.cfg.Caches
		for c := 0; c < e.cfg.Caches; c++ {
			n := int(e.st.unused[base+c])
			if n != 0 && !e.st.sharers[i].Contains(c) {
				return fmt.Errorf("%s: block %#x counter for non-holder %d", e.name, e.tab.Block(id), c)
			}
			if n >= e.threshold {
				return fmt.Errorf("%s: block %#x holder %d kept past threshold (%d)", e.name, e.tab.Block(id), c, n)
			}
		}
	}
	return nil
}

package coherence

import (
	"fmt"
	"strings"
)

// This file implements the Inspector interface for every engine family:
// canonical protocol-state keys for the model checker in internal/mc, and
// the ground-truth abstraction its coverage report is phrased in. Keys are
// built per block in the caller's block order, so equal keys mean equal
// state over the blocks the checker explores.
//
// Blocks the engine has never interned have no state by construction and
// render exactly like an absent entry of the map representation this
// replaced; interned ids are bounds-checked against the state arrays
// because a shared block-id table can know ids this engine has not grown
// its arrays to yet.

// Compile-time proof that every scheme NewByName can return is
// inspectable; mc relies on the type assertion never failing.
var (
	_ Inspector = (*DirEngine)(nil)
	_ Inspector = (*Berkeley)(nil)
	_ Inspector = (*SnoopyInval)(nil)
	_ Inspector = (*Dragon)(nil)
	_ Inspector = (*MOESI)(nil)
	_ Inspector = (*Competitive)(nil)
	_ Inspector = (*ReadBroadcast)(nil)
)

// Compile-time proof that every engine family supports id-indexed access;
// the simulator's interned dispatch relies on the assertion never failing.
var (
	_ IndexedEngine = (*DirEngine)(nil)
	_ IndexedEngine = (*Berkeley)(nil)
	_ IndexedEngine = (*SnoopyInval)(nil)
	_ IndexedEngine = (*Dragon)(nil)
	_ IndexedEngine = (*MOESI)(nil)
	_ IndexedEngine = (*Competitive)(nil)
	_ IndexedEngine = (*ReadBroadcast)(nil)
)

// StateKey implements Inspector: ground truth plus the directory store's
// per-block memory, which can lag the truth (TwoBit cannot forget holders,
// coded sets only widen) and therefore changes future behaviour.
func (e *DirEngine) StateKey(blocks []uint64) string {
	var b strings.Builder
	for _, blk := range blocks {
		fmt.Fprintf(&b, "b%d:", blk)
		id, ok := e.tab.Lookup(blk)
		e.state.appendKey(&b, id, ok)
		b.WriteString("/")
		if ok {
			b.WriteString(e.store.BlockKey(id))
		}
		b.WriteString(";")
	}
	return b.String()
}

// Truth implements Inspector.
func (e *DirEngine) Truth(block uint64) ([]int, bool) {
	id, ok := e.tab.Lookup(block)
	return e.state.truth(id, ok)
}

// StateKey implements Inspector: snoopy engines carry no directory, so the
// ground-truth table is the whole state.
func (e *SnoopyInval) StateKey(blocks []uint64) string {
	var b strings.Builder
	for _, blk := range blocks {
		fmt.Fprintf(&b, "b%d:", blk)
		id, ok := e.tab.Lookup(blk)
		e.state.appendKey(&b, id, ok)
		b.WriteString(";")
	}
	return b.String()
}

// Truth implements Inspector.
func (e *SnoopyInval) Truth(block uint64) ([]int, bool) {
	id, ok := e.tab.Lookup(block)
	return e.state.truth(id, ok)
}

// StateKey implements Inspector: holder set plus the memory-stale bit (an
// update protocol has no single owner — every copy is current).
func (e *Dragon) StateKey(blocks []uint64) string {
	var b strings.Builder
	for _, blk := range blocks {
		fmt.Fprintf(&b, "b%d:", blk)
		id, ok := e.tab.Lookup(blk)
		if !ok || int(id) >= len(e.st.sharers) || e.st.sharers[id].Empty() {
			b.WriteString("-")
		} else {
			b.WriteString(e.st.sharers[id].String())
			if e.st.memStale[id] {
				b.WriteString("!")
			}
		}
		b.WriteString(";")
	}
	return b.String()
}

// Truth implements Inspector.
func (e *Dragon) Truth(block uint64) ([]int, bool) {
	id, ok := e.tab.Lookup(block)
	if !ok || int(id) >= len(e.st.sharers) || e.st.sharers[id].Empty() {
		return nil, false
	}
	return e.st.sharers[id].Elems(), e.st.memStale[id]
}

// StateKey implements Inspector: holder set, staleness, and the owner
// responsible for the stale memory copy (dirty sharing distinguishes
// states MESI-family keys cannot reach).
func (e *MOESI) StateKey(blocks []uint64) string {
	var b strings.Builder
	for _, blk := range blocks {
		fmt.Fprintf(&b, "b%d:", blk)
		id, ok := e.tab.Lookup(blk)
		e.state.appendKey(&b, id, ok)
		b.WriteString(";")
	}
	return b.String()
}

// Truth implements Inspector.
func (e *MOESI) Truth(block uint64) ([]int, bool) {
	id, ok := e.tab.Lookup(block)
	return e.state.truth(id, ok)
}

// StateKey implements Inspector: holder set, staleness, and every holder's
// absorbed-update counter. A counter exists exactly for the holders (it is
// zeroed when a copy drops), so iterating the sharer set ascending matches
// the sorted-key order the map representation printed.
func (e *Competitive) StateKey(blocks []uint64) string {
	var b strings.Builder
	for _, blk := range blocks {
		fmt.Fprintf(&b, "b%d:", blk)
		id, ok := e.tab.Lookup(blk)
		if !ok || int(id) >= len(e.st.sharers) || e.st.sharers[id].Empty() {
			b.WriteString("-")
		} else {
			b.WriteString(e.st.sharers[id].String())
			if e.st.memStale[id] {
				b.WriteString("!")
			}
			base := int(id) * e.cfg.Caches
			for h := e.st.sharers[id].Next(0); h >= 0; h = e.st.sharers[id].Next(h + 1) {
				fmt.Fprintf(&b, "u%d=%d", h, e.st.unused[base+h])
			}
		}
		b.WriteString(";")
	}
	return b.String()
}

// Truth implements Inspector.
func (e *Competitive) Truth(block uint64) ([]int, bool) {
	id, ok := e.tab.Lookup(block)
	if !ok || int(id) >= len(e.st.sharers) || e.st.sharers[id].Empty() {
		return nil, false
	}
	return e.st.sharers[id].Elems(), e.st.memStale[id]
}

// StateKey implements Inspector: holder set, written state, and the
// snarfer set waiting to refill off the next bus read.
func (e *ReadBroadcast) StateKey(blocks []uint64) string {
	var b strings.Builder
	for _, blk := range blocks {
		fmt.Fprintf(&b, "b%d:", blk)
		id, ok := e.tab.Lookup(blk)
		if !ok || int(id) >= len(e.st.sharers) || (e.st.sharers[id].Empty() && e.st.snarfers[id].Empty()) {
			b.WriteString("-")
		} else {
			b.WriteString(e.st.sharers[id].String())
			if e.st.dirty[id] {
				fmt.Fprintf(&b, "!%d", e.st.owner[id])
			}
			if !e.st.snarfers[id].Empty() {
				b.WriteString("s")
				b.WriteString(e.st.snarfers[id].String())
			}
		}
		b.WriteString(";")
	}
	return b.String()
}

// Truth implements Inspector.
func (e *ReadBroadcast) Truth(block uint64) ([]int, bool) {
	id, ok := e.tab.Lookup(block)
	if !ok || int(id) >= len(e.st.sharers) || e.st.sharers[id].Empty() {
		return nil, false
	}
	return e.st.sharers[id].Elems(), e.st.dirty[id]
}

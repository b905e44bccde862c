package coherence

import (
	"fmt"
	"strings"

	"dirsim/internal/blockid"
)

// This file implements the Inspector interface: canonical protocol-state
// keys for the model checker in internal/mc, and the ground-truth
// abstraction its coverage report is phrased in. Every family keeps its
// ground truth in the core's blockStates, so one walk renders every key;
// a family whose state goes beyond the ground truth hands the walk a
// per-block renderer. Keys are built per block in the caller's block
// order, so equal keys mean equal state over the blocks the checker
// explores.
//
// Blocks the engine has never interned have no state by construction and
// render exactly like an absent entry of the map representation this
// replaced; interned ids are bounds-checked against the state arrays
// because a shared block-id table can know ids this engine has not grown
// its arrays to yet.

// Compile-time proof that every scheme NewByName can return, and the
// NUMA family, is inspectable; mc relies on the type assertion never
// failing.
var (
	_ Inspector = (*DirEngine)(nil)
	_ Inspector = (*Berkeley)(nil)
	_ Inspector = (*SnoopyInval)(nil)
	_ Inspector = (*Dragon)(nil)
	_ Inspector = (*NUMAEngine)(nil)
)

// Compile-time proof that every engine family supports id-indexed access;
// the simulator's interned dispatch relies on the assertion never failing.
var (
	_ IndexedEngine = (*DirEngine)(nil)
	_ IndexedEngine = (*Berkeley)(nil)
	_ IndexedEngine = (*SnoopyInval)(nil)
	_ IndexedEngine = (*Dragon)(nil)
	_ IndexedEngine = (*NUMAEngine)(nil)
)

// StateKey implements Inspector for the families whose blockStates are
// their whole state: the snoopy engines, whose snarfer sets and update
// counters live there too, and the interleaved NUMA engine.
func (k *engineCore) StateKey(blocks []uint64) string {
	return k.stateKey(blocks, k.state.appendKey)
}

// stateKey is the one Inspector walk: "b<block>:" then render's encoding
// of the block, then ";", for each block in order. ok is the block's
// table-lookup result.
func (k *engineCore) stateKey(blocks []uint64, render func(b *strings.Builder, id blockid.ID, ok bool)) string {
	var b strings.Builder
	for _, blk := range blocks {
		fmt.Fprintf(&b, "b%d:", blk)
		id, ok := k.tab.Lookup(blk)
		render(&b, id, ok)
		b.WriteString(";")
	}
	return b.String()
}

// Truth implements Inspector.
func (k *engineCore) Truth(block uint64) ([]int, bool) {
	id, ok := k.tab.Lookup(block)
	if !k.state.live(id, ok) {
		return nil, false
	}
	return k.state.sharers[id].Elems(), k.state.dirty[id]
}

// StateKey implements Inspector: ground truth plus the directory store's
// per-block memory, which can lag the truth (TwoBit cannot forget holders,
// coded sets only widen) and therefore changes future behaviour.
func (e *DirEngine) StateKey(blocks []uint64) string {
	return e.stateKey(blocks, func(b *strings.Builder, id blockid.ID, ok bool) {
		e.state.appendKey(b, id, ok)
		b.WriteString("/")
		if ok {
			b.WriteString(e.store.BlockKey(id))
		}
	})
}

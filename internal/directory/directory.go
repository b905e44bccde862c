// Package directory implements the directory storage organisations the
// paper surveys in Sections 2 and 6.
//
// A directory records, for each block of main memory, which caches may hold
// a copy. The organisations differ in how much they remember and therefore
// in how invalidations must be delivered:
//
//   - the Censier–Feautrier full map (FullMap) keeps one presence bit per
//     cache, so invalidations can be directed messages;
//   - Tang's organisation (Tang) duplicates every cache's tag store at
//     memory — the same information as the full map, but each lookup must
//     search all the duplicate directories;
//   - the Archibald–Baer two-bit scheme (TwoBit) keeps only four states per
//     block and relies on broadcast to invalidate;
//   - limited-pointer schemes (LimitedPointer) keep i cache indices plus,
//     in the Dir_iB variant, a broadcast bit; the Dir_iNB variant instead
//     evicts an existing copy when a pointer is needed;
//   - the Section 6 coded-set scheme (CodedSet) stores a ternary-digit word
//     denoting a superset of the holders in 2·log2(n) bits.
//
// Stores answer the one question coherence engines ask — "whom must I
// invalidate?" — and account for their own storage cost, so the protocol
// engines in internal/coherence are organisation-agnostic.
//
// Blocks are identified by the dense ids of internal/blockid rather than
// raw addresses: the engine interns each referenced block once, and every
// store keeps its per-block memory in plain slices indexed by id. The
// per-reference path therefore performs no hashing and, once the slices
// reach the trace's working-set size, no allocation. A slot whose zero
// value means "nothing remembered" doubles as the deleted state, so Clear
// and Remove never shrink anything.
package directory

import (
	"fmt"
	"math/bits"
	"slices"

	"dirsim/internal/blockid"
)

// Store is a directory organisation tracking, per memory block, which
// caches may hold copies. Implementations trade precision for storage.
//
// The protocol engine owns the ground-truth sharing state; a Store only
// models what the hardware directory would know. Engines must keep the two
// in sync by calling Add when a cache obtains a copy, SetSole after a write
// leaves one holder, Remove when a copy is invalidated or replaced, and
// Clear when no copies remain.
type Store interface {
	// Name identifies the organisation.
	Name() string

	// Add records that cache c obtained a copy of block id. Limited-pointer
	// no-broadcast stores may have to free a pointer by invalidating an
	// existing copy; Add then returns that victim cache and the caller
	// must invalidate it. Otherwise victim is -1.
	Add(id blockid.ID, c int) (victim int)

	// Remove records that cache c no longer holds block id. Organisations
	// that do not track individual holders ignore it.
	Remove(id blockid.ID, c int)

	// SetSole records that cache c is now the only holder (after a
	// write gained exclusive access).
	SetSole(id blockid.ID, c int)

	// Clear records that no cache holds block id.
	Clear(id blockid.ID)

	// Targets reports how to deliver an invalidation to every copy of
	// block id except cache `except` (pass -1 to hit all copies): either a
	// list of directed message targets, or broadcast = true when the
	// organisation does not know the holders. Directed targets are
	// appended to dst and returned, so a caller that reuses the returned
	// slice's capacity pays no allocation on the per-reference path;
	// pass nil when a fresh slice is acceptable.
	Targets(dst []int, id blockid.ID, except int) (targets []int, broadcast bool)

	// Count reports how many caches the directory believes hold block id.
	// When exact is false, n is a lower bound (TwoBit's "clean in an
	// unknown number of caches") or an upper bound superset size
	// (CodedSet); callers must consult broadcast/Targets rather than
	// trusting n.
	Count(id blockid.ID) (n int, exact bool)

	// StorageBits returns the total directory storage the organisation
	// needs for a machine described by p.
	StorageBits(p StorageParams) uint64

	// BlockKey returns a canonical, deterministic encoding of everything
	// the organisation remembers about block id — the directory half of a
	// model-checking state key. Blocks the store tracks nothing for
	// encode as "". Two stores of the same organisation with equal keys
	// answer Count identically and Targets with the same caches for that
	// block, in the same order wherever the order changes behaviour.
	BlockKey(id blockid.ID) string
}

// StorageParams describes the machine for storage accounting.
type StorageParams struct {
	// Caches is the number of processor caches.
	Caches int
	// MemoryBlocks is the number of blocks of main memory.
	MemoryBlocks uint64
	// CacheBlocks is the number of blocks per processor cache (used by
	// Tang's duplicate-directory organisation).
	CacheBlocks uint64
	// TagBits is the width of one cache tag (used by Tang).
	TagBits int
}

// DefaultStorageParams returns a machine comparable to the paper's setting:
// n caches, 16 MB of memory in 16-byte blocks, 64 KB caches, 32-bit tags.
func DefaultStorageParams(caches int) StorageParams {
	return StorageParams{
		Caches:       caches,
		MemoryBlocks: 1 << 20, // 16 MB / 16 B
		CacheBlocks:  1 << 12, // 64 KB / 16 B
		TagBits:      32,
	}
}

// log2Ceil returns ceil(log2(n)) for n ≥ 1.
func log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// appendExcept copies src to dst, skipping except.
func appendExcept(dst, src []int, except int) []int {
	for _, c := range src {
		if c != except {
			dst = append(dst, c)
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// FullMap: Censier & Feautrier.

// FullMap is the Censier–Feautrier organisation: a dirty bit plus one
// presence ("valid") bit per cache with every memory block, accessed
// directly by block address. It realises Dir_nNB: invalidations are
// directed, sequential messages, never broadcast.
type FullMap struct {
	caches  int
	present [][]int // holder list per block id, insertion-ordered
}

// NewFullMap returns a full-map store for n caches.
func NewFullMap(n int) *FullMap {
	return &FullMap{caches: n}
}

// Name implements Store.
func (f *FullMap) Name() string { return "full-map" }

// ensure grows the per-block slice to cover id (amortized growth).
func (f *FullMap) ensure(id blockid.ID) {
	if int(id) < len(f.present) {
		return
	}
	grown := make([][]int, int(id)+1+len(f.present))
	copy(grown, f.present)
	f.present = grown
}

// Add implements Store.
func (f *FullMap) Add(id blockid.ID, c int) int {
	f.ensure(id)
	hs := f.present[id]
	for _, h := range hs {
		if h == c {
			return -1
		}
	}
	f.present[id] = append(hs, c)
	return -1
}

// Remove implements Store.
func (f *FullMap) Remove(id blockid.ID, c int) {
	if int(id) >= len(f.present) {
		return
	}
	hs := f.present[id]
	for i, h := range hs {
		if h == c {
			f.present[id] = append(hs[:i], hs[i+1:]...)
			return
		}
	}
}

// SetSole implements Store.
func (f *FullMap) SetSole(id blockid.ID, c int) {
	f.ensure(id)
	f.present[id] = append(f.present[id][:0], c)
}

// Clear implements Store.
func (f *FullMap) Clear(id blockid.ID) {
	if int(id) < len(f.present) {
		f.present[id] = f.present[id][:0]
	}
}

// Targets implements Store: the exact holders, as directed messages.
func (f *FullMap) Targets(dst []int, id blockid.ID, except int) ([]int, bool) {
	if int(id) >= len(f.present) {
		return dst, false
	}
	return appendExcept(dst, f.present[id], except), false
}

// Count implements Store.
func (f *FullMap) Count(id blockid.ID) (int, bool) {
	if int(id) >= len(f.present) {
		return 0, true
	}
	return len(f.present[id]), true
}

// StorageBits implements Store: presence bits plus a dirty bit per block.
func (f *FullMap) StorageBits(p StorageParams) uint64 {
	return p.MemoryBlocks * uint64(p.Caches+1)
}

// BlockKey implements Store: the holders, sorted. The order they joined
// in orders Targets' directed invalidations, but every invalidation costs
// the same and the engine drops all the copies at once, so the order is
// not state: holders reached in any order behave alike.
func (f *FullMap) BlockKey(id blockid.ID) string {
	if int(id) >= len(f.present) || len(f.present[id]) == 0 {
		return ""
	}
	hs := slices.Clone(f.present[id])
	slices.Sort(hs)
	return fmt.Sprint(hs)
}

// Holders returns the exact holder list (primarily for tests and for
// measuring coded-set waste against the truth).
func (f *FullMap) Holders(id blockid.ID) []int {
	if int(id) >= len(f.present) {
		return nil
	}
	return append([]int(nil), f.present[id]...)
}

// ---------------------------------------------------------------------------
// Tang: duplicate cache directories.

// Tang is Tang's organisation: main memory keeps a copy of every cache's
// tag store and dirty bits. The information content equals the full map, so
// invalidation behaviour is identical; the organisational differences are
// cost ones — every lookup searches all n duplicate directories, and
// storage scales with total cache size rather than memory size.
type Tang struct {
	FullMap
}

// NewTang returns a duplicate-directory store for n caches.
func NewTang(n int) *Tang {
	return &Tang{FullMap: *NewFullMap(n)}
}

// Name implements Store.
func (t *Tang) Name() string { return "tang-duplicate" }

// StorageBits implements Store: one tag plus dirty bit per cache block per
// cache, independent of memory size.
func (t *Tang) StorageBits(p StorageParams) uint64 {
	return uint64(p.Caches) * p.CacheBlocks * uint64(p.TagBits+1)
}

// Probes returns the number of duplicate directories searched per lookup.
func (t *Tang) Probes() int { return t.caches }

// ---------------------------------------------------------------------------
// TwoBit: Archibald & Baer.

type twoBitState uint8

const (
	stUncached  twoBitState = iota
	stCleanOne              // block clean in exactly one cache
	stCleanMany             // block clean in an unknown number of caches
	stDirtyOne              // block dirty in exactly one cache
)

// TwoBit is the Archibald–Baer organisation: two state bits per memory
// block and no cache indices at all. Invalidations and write-back requests
// are broadcast — this is the storage behind Dir_0B. The "clean in exactly
// one cache" state exists to spare a broadcast when the writer is the lone
// holder.
type TwoBit struct {
	state []twoBitState // per block id; stUncached is the zero value
}

// NewTwoBit returns a two-bit store.
func NewTwoBit() *TwoBit { return &TwoBit{} }

// Name implements Store.
func (t *TwoBit) Name() string { return "two-bit" }

// ensure grows the state slice to cover id (amortized growth).
func (t *TwoBit) ensure(id blockid.ID) {
	if int(id) < len(t.state) {
		return
	}
	grown := make([]twoBitState, int(id)+1+len(t.state))
	copy(grown, t.state)
	t.state = grown
}

// get reads the state without growing; out-of-range ids are uncached.
func (t *TwoBit) get(id blockid.ID) twoBitState {
	if int(id) >= len(t.state) {
		return stUncached
	}
	return t.state[id]
}

// Add implements Store.
func (t *TwoBit) Add(id blockid.ID, c int) int {
	t.ensure(id)
	switch t.state[id] {
	case stUncached:
		t.state[id] = stCleanOne
	case stCleanOne:
		t.state[id] = stCleanMany
	case stCleanMany:
		// Already clean in several caches; one more changes nothing.
	case stDirtyOne:
		// The old owner wrote back and retains a clean copy alongside
		// the newcomer.
		t.state[id] = stCleanMany
	}
	return -1
}

// Remove implements Store. The organisation keeps no per-cache state, so a
// replacement hint cannot be recorded.
func (t *TwoBit) Remove(id blockid.ID, c int) {}

// SetSole implements Store.
func (t *TwoBit) SetSole(id blockid.ID, c int) {
	t.ensure(id)
	t.state[id] = stDirtyOne
}

// Clear implements Store.
func (t *TwoBit) Clear(id blockid.ID) {
	if int(id) < len(t.state) {
		t.state[id] = stUncached
	}
}

// Targets implements Store: holders are unknown, so every invalidation is a
// broadcast (unless Count shows none is needed).
func (t *TwoBit) Targets(dst []int, id blockid.ID, except int) ([]int, bool) {
	if t.get(id) == stUncached {
		return dst, false
	}
	return dst, true
}

// Count implements Store.
func (t *TwoBit) Count(id blockid.ID) (int, bool) {
	switch t.get(id) {
	case stUncached:
		return 0, true
	case stCleanOne, stDirtyOne:
		return 1, true
	default:
		return 2, false
	}
}

// StorageBits implements Store: two bits per memory block.
func (t *TwoBit) StorageBits(p StorageParams) uint64 {
	return p.MemoryBlocks * 2
}

// BlockKey implements Store: the two-bit state.
func (t *TwoBit) BlockKey(id blockid.ID) string {
	switch s := t.get(id); s {
	case stUncached:
		return ""
	case stCleanOne:
		return "c1"
	case stCleanMany:
		return "cn"
	case stDirtyOne:
		return "d1"
	default:
		return fmt.Sprintf("?%d", s)
	}
}

// ---------------------------------------------------------------------------
// LimitedPointer: Dir_iB and Dir_iNB.

// LimitedPointer keeps up to i cache indices per block. With Broadcast
// true (Dir_iB) an overflowing copy sets a broadcast bit and invalidations
// fall back to broadcast; with Broadcast false (Dir_iNB) the store frees a
// pointer by evicting the oldest tracked copy, bounding the number of
// simultaneous copies at i and avoiding broadcast entirely.
//
// Pointers live in one flat array of stride slots per block id, the
// first count of them in FIFO order (oldest first), beside a per-block
// word holding the count and the broadcast bit: the struct-of-arrays
// layout of the other stores, so the steady state allocates nothing.
type LimitedPointer struct {
	i         int
	broadcast bool
	caches    int
	// stride is the pointer slots per block: i, capped at the cache
	// count, since a block never has more distinct holders than caches.
	stride int
	ptrs   []int32  // stride slots per block id
	meta   []uint32 // per block id: pointer count | lpBcast; zero tracks nothing
}

// lpBcast is the broadcast bit of a LimitedPointer meta word; the bits
// below it count the block's pointers.
const lpBcast = 1 << 31

// NewLimitedPointer returns a limited-pointer store with i pointers for n
// caches. broadcast selects the Dir_iB (true) or Dir_iNB (false) variant.
func NewLimitedPointer(i, n int, broadcast bool) (*LimitedPointer, error) {
	if i < 1 {
		return nil, fmt.Errorf("directory: pointer count %d must be at least 1", i)
	}
	if n < 1 {
		return nil, fmt.Errorf("directory: cache count %d must be at least 1", n)
	}
	return &LimitedPointer{i: i, broadcast: broadcast, caches: n, stride: min(i, n)}, nil
}

// Name implements Store.
func (l *LimitedPointer) Name() string {
	if l.broadcast {
		return fmt.Sprintf("dir%dB-pointers", l.i)
	}
	return fmt.Sprintf("dir%dNB-pointers", l.i)
}

// Pointers returns i, the pointer budget.
func (l *LimitedPointer) Pointers() int { return l.i }

// Broadcast reports whether this is the Dir_iB variant (overflow sets a
// broadcast bit) rather than Dir_iNB (overflow evicts a copy).
func (l *LimitedPointer) Broadcast() bool { return l.broadcast }

// ensure grows the per-block arrays to cover id (amortized growth).
func (l *LimitedPointer) ensure(id blockid.ID) {
	if int(id) < len(l.meta) {
		return
	}
	meta := make([]uint32, int(id)+1+len(l.meta))
	copy(meta, l.meta)
	l.meta = meta
	ptrs := make([]int32, len(meta)*l.stride)
	copy(ptrs, l.ptrs)
	l.ptrs = ptrs
}

// block returns block id's pointer slots and its meta word. id must be
// covered by ensure.
func (l *LimitedPointer) block(id blockid.ID) ([]int32, *uint32) {
	base := int(id) * l.stride
	return l.ptrs[base : base+l.stride], &l.meta[id]
}

// Add implements Store.
func (l *LimitedPointer) Add(id blockid.ID, c int) int {
	l.ensure(id)
	slots, m := l.block(id)
	n := int(*m &^ lpBcast)
	for _, p := range slots[:n] {
		if int(p) == c {
			return -1
		}
	}
	if *m&lpBcast != 0 {
		// Already beyond tracking; the new copy is covered by the
		// broadcast bit.
		return -1
	}
	if n < l.i {
		slots[n] = int32(c)
		*m++
		return -1
	}
	if l.broadcast {
		*m |= lpBcast
		return -1
	}
	// Dir_iNB: evict the oldest pointer to make room.
	victim := int(slots[0])
	copy(slots, slots[1:n])
	slots[n-1] = int32(c)
	return victim
}

// Remove implements Store.
func (l *LimitedPointer) Remove(id blockid.ID, c int) {
	if int(id) >= len(l.meta) {
		return
	}
	slots, m := l.block(id)
	n := int(*m &^ lpBcast)
	for k, p := range slots[:n] {
		if int(p) == c {
			copy(slots[k:], slots[k+1:n])
			*m--
			return
		}
	}
}

// SetSole implements Store.
func (l *LimitedPointer) SetSole(id blockid.ID, c int) {
	l.ensure(id)
	slots, m := l.block(id)
	slots[0] = int32(c)
	*m = 1
}

// Clear implements Store.
func (l *LimitedPointer) Clear(id blockid.ID) {
	if int(id) < len(l.meta) {
		l.meta[id] = 0
	}
}

// pointers returns block id's pointers in FIFO order and its broadcast
// bit, without growing the store.
func (l *LimitedPointer) pointers(id blockid.ID) ([]int32, bool) {
	if int(id) >= len(l.meta) {
		return nil, false
	}
	slots, m := l.block(id)
	return slots[:*m&^lpBcast], *m&lpBcast != 0
}

// Targets implements Store.
func (l *LimitedPointer) Targets(dst []int, id blockid.ID, except int) ([]int, bool) {
	ptrs, bcast := l.pointers(id)
	if bcast {
		return dst, true
	}
	for _, p := range ptrs {
		if int(p) != except {
			dst = append(dst, int(p))
		}
	}
	return dst, false
}

// Count implements Store.
func (l *LimitedPointer) Count(id blockid.ID) (int, bool) {
	ptrs, bcast := l.pointers(id)
	if bcast {
		// At least i+1 copies exist somewhere.
		return l.i + 1, false
	}
	return len(ptrs), true
}

// BlockKey implements Store: the pointer list in FIFO order (the order
// picks the Dir_iNB eviction victim, so it is state) plus the broadcast
// bit.
func (l *LimitedPointer) BlockKey(id blockid.ID) string {
	ptrs, bcast := l.pointers(id)
	if bcast {
		return fmt.Sprintf("%v*", ptrs)
	}
	if len(ptrs) == 0 {
		return ""
	}
	return fmt.Sprint(ptrs)
}

// StorageBits implements Store: i pointers of ceil(log2 n) bits, a dirty
// bit, and — in the broadcast variant — the broadcast bit, per block.
func (l *LimitedPointer) StorageBits(p StorageParams) uint64 {
	per := uint64(l.i*log2Ceil(p.Caches) + 1)
	if l.broadcast {
		per++
	}
	return p.MemoryBlocks * per
}

// ---------------------------------------------------------------------------
// CodedSet: Section 6's ternary-digit superset code.

// CodedSet stores, per block, a word of d = ceil(log2 n) digits over
// {0, 1, both}. A digit that is 0 or 1 constrains that bit of the holders'
// cache indices; a digit coded "both" matches either value. The denoted set
// of caches is therefore a superset of the true holders, reached with
// 2·log2(n) bits per block. Invalidations are directed ("limited
// broadcast") to every cache in the superset, so some messages are wasted;
// the engine measures that waste.
type CodedSet struct {
	caches int
	digits int
	codes  []codedEntry // per block id
	// tracked distinguishes an absent code from the valid code denoting
	// cache 0 alone (value 0, both 0).
	tracked []bool
}

type codedEntry struct {
	value uint32 // digit values where both-mask is 0
	both  uint32 // mask of digits coded "both"
}

// NewCodedSet returns a coded-set store for n caches.
func NewCodedSet(n int) (*CodedSet, error) {
	if n < 1 || n > 1<<20 {
		return nil, fmt.Errorf("directory: cache count %d out of range", n)
	}
	return &CodedSet{caches: n, digits: log2Ceil(n)}, nil
}

// Name implements Store.
func (cs *CodedSet) Name() string { return "coded-set" }

// ensure grows the code slices to cover id (amortized growth).
func (cs *CodedSet) ensure(id blockid.ID) {
	if int(id) < len(cs.codes) {
		return
	}
	n := int(id) + 1 + len(cs.codes)
	codes := make([]codedEntry, n)
	copy(codes, cs.codes)
	tracked := make([]bool, n)
	copy(tracked, cs.tracked)
	cs.codes, cs.tracked = codes, tracked
}

// entry reads the code without growing.
func (cs *CodedSet) entry(id blockid.ID) (codedEntry, bool) {
	if int(id) >= len(cs.tracked) || !cs.tracked[id] {
		return codedEntry{}, false
	}
	return cs.codes[id], true
}

// Add implements Store: merge c into the code, widening digits that differ
// to "both".
func (cs *CodedSet) Add(id blockid.ID, c int) int {
	cs.ensure(id)
	if !cs.tracked[id] {
		cs.tracked[id] = true
		cs.codes[id] = codedEntry{value: uint32(c)}
		return -1
	}
	e := cs.codes[id]
	diff := (e.value ^ uint32(c)) &^ e.both
	e.both |= diff
	e.value &^= diff
	cs.codes[id] = e
	return -1
}

// Remove implements Store. The superset code cannot forget a member, so
// replacement hints are ignored (the set only ever widens between writes).
func (cs *CodedSet) Remove(id blockid.ID, c int) {}

// SetSole implements Store.
func (cs *CodedSet) SetSole(id blockid.ID, c int) {
	cs.ensure(id)
	cs.tracked[id] = true
	cs.codes[id] = codedEntry{value: uint32(c)}
}

// Clear implements Store.
func (cs *CodedSet) Clear(id blockid.ID) {
	if int(id) < len(cs.tracked) {
		cs.tracked[id] = false
		cs.codes[id] = codedEntry{}
	}
}

// Targets implements Store: every cache index matching the code, as
// directed messages. This is the paper's "limited broadcast".
//
// The matches are the assignments of the "both" digits, i.e. the values
// value|sub over every submask sub of both. The standard submask walk
// sub' = (sub-both)&both enumerates them in increasing numeric order —
// the same order the engines have always invalidated in — without the
// closure and scratch slice a forEachMatch callback would cost on the
// Access hot path.
func (cs *CodedSet) Targets(dst []int, id blockid.ID, except int) ([]int, bool) {
	e, ok := cs.entry(id)
	if !ok {
		return dst, false
	}
	for sub := uint32(0); ; sub = (sub - e.both) & e.both {
		c := int(e.value | sub)
		if c < cs.caches && c != except {
			dst = append(dst, c)
		}
		if sub == e.both {
			break
		}
	}
	return dst, false
}

func (cs *CodedSet) forEachMatch(e codedEntry, fn func(int)) {
	// Enumerate all assignments of the "both" digits.
	bothBits := make([]uint32, 0, cs.digits)
	for d := 0; d < cs.digits; d++ {
		if e.both&(1<<uint(d)) != 0 {
			bothBits = append(bothBits, 1<<uint(d))
		}
	}
	for m := 0; m < 1<<uint(len(bothBits)); m++ {
		c := e.value
		for j, bit := range bothBits {
			if m&(1<<uint(j)) != 0 {
				c |= bit
			}
		}
		if int(c) < cs.caches {
			fn(int(c))
		}
	}
}

// Count implements Store: the superset size (an upper bound on holders).
func (cs *CodedSet) Count(id blockid.ID) (int, bool) {
	e, ok := cs.entry(id)
	if !ok {
		return 0, true
	}
	if e.both == 0 {
		return 1, true
	}
	n := 0
	cs.forEachMatch(e, func(int) { n++ })
	return n, false
}

// StorageBits implements Store: two bits per digit plus a dirty bit.
func (cs *CodedSet) StorageBits(p StorageParams) uint64 {
	return p.MemoryBlocks * uint64(2*log2Ceil(p.Caches)+1)
}

// BlockKey implements Store: the ternary code word.
func (cs *CodedSet) BlockKey(id blockid.ID) string {
	e, ok := cs.entry(id)
	if !ok {
		return ""
	}
	return fmt.Sprintf("v%x^%x", e.value, e.both)
}

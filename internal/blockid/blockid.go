// Package blockid interns 64-bit block addresses into dense uint32 ids.
//
// Every per-block lookup on the simulator's hot path used to be a
// map[uint64] access: the decode stage's first-reference set, each
// engine's ground-truth state table, and each directory store's per-block
// entry. Interning collapses all of them into one hash probe per decoded
// reference — the Table assigns each distinct block address a dense id in
// order of first appearance, and everything downstream indexes plain
// slices with it (struct-of-arrays state, see DESIGN.md §9).
//
// The Table is a custom open-addressing hash (power-of-two capacity,
// Fibonacci multiplicative hashing, linear probing) rather than a Go map:
// the decode stage performs exactly one Intern per data reference, so its
// probe cost bounds single-engine throughput. Growth is guarded and
// doubling, so interning amortizes to O(1) with no per-call allocation —
// the shape internal/lint's enginepurity rule admits on Access paths.
package blockid

// ID is the dense index assigned to a block address in order of first
// appearance among data references. Ids are only meaningful relative to
// the Table that assigned them.
type ID uint32

// hashMul is 2^64 / φ, the Fibonacci hashing constant: consecutive block
// numbers (the common trace pattern) scatter across the table instead of
// clustering into one probe chain.
const hashMul = 0x9E3779B97F4A7C15

// none marks an empty probe slot.
const none = ^ID(0)

// entry is one probe slot: the interned address and its id together, so a
// probe touches a single cache line (16 bytes after alignment) instead of
// one line in a key array plus one in an id array.
type entry struct {
	key uint64
	id  ID // none marks an empty slot
}

// Table interns block addresses. The zero value is an empty table; its
// probe slots are allocated by the first Intern, so a table that is made
// but never interned into (an engine's own table, replaced by BindBlocks
// before the first reference) costs only its header.
type Table struct {
	// blocks maps id → address, in first-appearance order.
	blocks []uint64
	// entries is the open-addressing table mapping address → id.
	entries []entry
	// shift turns a 64-bit hash into a table index: 64 - log2(len(entries)).
	shift uint
}

// initialBits is log2 of the probe-table size the first Intern allocates.
const initialBits = 10

// New returns an empty table.
func New() *Table { return &Table{} }

// Len returns the number of distinct blocks interned.
func (t *Table) Len() int { return len(t.blocks) }

// Block returns the address interned as id. It panics when id was never
// assigned.
func (t *Table) Block(id ID) uint64 { return t.blocks[id] }

// Intern returns the id for block, assigning the next dense id on first
// appearance. fresh reports whether this call created the assignment —
// exactly the "first reference to the block anywhere in the trace"
// predicate the paper's cold-miss exclusion needs.
func (t *Table) Intern(block uint64) (id ID, fresh bool) {
	if len(t.entries) == 0 {
		// First intern: allocate the probe slots. Inline, like the
		// doubling below, so the allocation stays behind a length guard.
		t.entries = make([]entry, 1<<initialBits)
		for j := range t.entries {
			t.entries[j].id = none
		}
		t.shift = 64 - initialBits
	}
	mask := uint64(len(t.entries) - 1)
	i := (block * hashMul) >> t.shift
	for {
		e := &t.entries[i]
		if e.id == none {
			break
		}
		if e.key == block {
			return e.id, false
		}
		i = (i + 1) & mask
	}
	id = ID(len(t.blocks))
	if id == none {
		panic("blockid: table full (2^32-1 blocks)")
	}
	t.blocks = append(t.blocks, block)
	t.entries[i] = entry{key: block, id: id}
	if uint64(len(t.blocks))*4 >= uint64(len(t.entries))*3 {
		// Grow: double the probe table and re-place every assignment.
		// Ids are positions in blocks, not probe slots, so they are
		// untouched. Inline (not a helper) so the doubling stays behind
		// this length guard — the amortized-growth shape the enginepurity
		// rule admits on Access paths.
		size := len(t.entries) * 2
		entries := make([]entry, size)
		for j := range entries {
			entries[j].id = none
		}
		t.shift--
		m := uint64(size - 1)
		for prev, b := range t.blocks {
			j := (b * hashMul) >> t.shift
			for entries[j].id != none {
				j = (j + 1) & m
			}
			entries[j] = entry{key: b, id: ID(prev)}
		}
		t.entries = entries
	}
	return id, true
}

// Lookup returns the id previously assigned to block, if any. It never
// assigns.
func (t *Table) Lookup(block uint64) (ID, bool) {
	if len(t.entries) == 0 {
		return 0, false
	}
	mask := uint64(len(t.entries) - 1)
	i := (block * hashMul) >> t.shift
	for {
		e := &t.entries[i]
		if e.id == none {
			return 0, false
		}
		if e.key == block {
			return e.id, true
		}
		i = (i + 1) & mask
	}
}

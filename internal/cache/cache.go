// Package cache models per-processor cache contents.
//
// The paper simulates infinite caches so that only the inherent cost of
// sharing is measured: "our simulations use infinite caches to eliminate
// the traffic caused by interference in finite caches". The protocol
// engines therefore default to an infinite cache, which needs no
// replacement tracking at all: their sharer sets already record
// membership. This package provides the finite set-associative LRU cache
// the paper invokes when it notes that "the performance of a system with
// smaller caches can be estimated to first order by adding the costs due
// to the finite cache size" — the simulator's finite mode measures that
// first-order addition directly.
//
// The cache is keyed by dense block ids (internal/blockid) rather than
// raw addresses: membership is a slice index, and the LRU structure is an
// intrusive array-linked list over a fixed frame pool, so the steady-state
// access path performs no allocation and no hashing. Set selection still
// uses the raw block number's low bits — the hardware indexing — so finite
// LRU behaviour is bit-identical to the address-keyed implementation this
// replaced.
package cache

import (
	"fmt"

	"dirsim/internal/blockid"
)

// noFrame marks an empty link or an absent id.
const noFrame = int32(-1)

// SetAssoc is a set-associative cache with per-set LRU replacement. With
// Sets == 1 it degenerates to a fully associative LRU cache.
//
// The structure is a fixed pool of sets×ways frames. Each set owns the
// frames [s·ways, (s+1)·ways) and threads the resident ones on an
// intrusive doubly-linked LRU list (head = most recent) with a free list
// for the rest, all through the prev/next arrays — no list nodes are ever
// allocated. nodeOf maps a block id to its frame for O(1) membership; it
// grows only when a new id exceeds its length, which amortizes to zero.
type SetAssoc struct {
	sets   int
	ways   int
	prev   []int32      // per frame: previous frame in the set's LRU list
	next   []int32      // per frame: next frame (LRU list or free list)
	ids    []blockid.ID // per frame: resident block id
	fset   []int32      // per frame: owning set (frames never migrate)
	head   []int32      // per set: most-recently-used frame
	tail   []int32      // per set: least-recently-used frame
	free   []int32      // per set: free-list head, linked through next
	nodeOf []int32      // per block id: frame holding it, or noFrame
	n      int
}

// NewSetAssoc returns a cache of sets × ways blocks. Sets must be a power
// of two so the set index can be taken from the block number's low bits.
func NewSetAssoc(sets, ways int) (*SetAssoc, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: sets = %d must be a positive power of two", sets)
	}
	if ways <= 0 {
		return nil, fmt.Errorf("cache: ways = %d must be positive", ways)
	}
	frames := sets * ways
	c := &SetAssoc{
		sets: sets,
		ways: ways,
		prev: make([]int32, frames),
		next: make([]int32, frames),
		ids:  make([]blockid.ID, frames),
		fset: make([]int32, frames),
		head: make([]int32, sets),
		tail: make([]int32, sets),
		free: make([]int32, sets),
	}
	for s := 0; s < sets; s++ {
		c.head[s] = noFrame
		c.tail[s] = noFrame
		// Free list in ascending frame order within the set.
		c.free[s] = int32(s * ways)
		for w := 0; w < ways; w++ {
			f := s*ways + w
			c.fset[f] = int32(s)
			if w+1 < ways {
				c.next[f] = int32(f + 1)
			} else {
				c.next[f] = noFrame
			}
		}
	}
	return c, nil
}

// NewLRU returns a fully associative LRU cache holding capacity blocks.
func NewLRU(capacity int) (*SetAssoc, error) {
	return NewSetAssoc(1, capacity)
}

// frame returns the frame holding id, or noFrame.
func (c *SetAssoc) frame(id blockid.ID) int32 {
	if int(id) >= len(c.nodeOf) {
		return noFrame
	}
	return c.nodeOf[id]
}

// ensureID grows the id→frame index to cover id.
func (c *SetAssoc) ensureID(id blockid.ID) {
	if int(id) < len(c.nodeOf) {
		return
	}
	grown := make([]int32, int(id)+1+len(c.nodeOf))
	copy(grown, c.nodeOf)
	for i := len(c.nodeOf); i < len(grown); i++ {
		grown[i] = noFrame
	}
	c.nodeOf = grown
}

// detach unlinks frame f from its set's LRU list.
func (c *SetAssoc) detach(f int32) {
	s := c.fset[f]
	if c.prev[f] != noFrame {
		c.next[c.prev[f]] = c.next[f]
	} else {
		c.head[s] = c.next[f]
	}
	if c.next[f] != noFrame {
		c.prev[c.next[f]] = c.prev[f]
	} else {
		c.tail[s] = c.prev[f]
	}
}

// pushFront links frame f at the most-recently-used end of its set.
func (c *SetAssoc) pushFront(f int32) {
	s := c.fset[f]
	c.prev[f] = noFrame
	c.next[f] = c.head[s]
	if c.head[s] != noFrame {
		c.prev[c.head[s]] = f
	} else {
		c.tail[s] = f
	}
	c.head[s] = f
}

// Touch records a reference to a resident block.
func (c *SetAssoc) Touch(id blockid.ID) {
	f := c.frame(id)
	if f == noFrame || c.head[c.fset[f]] == f {
		return
	}
	c.detach(f)
	c.pushFront(f)
}

// Insert adds a block, returning the id of the victim block evicted to
// make room (evicted=true). The raw block number's low bits select the
// set. Inserting a resident block just refreshes its recency.
func (c *SetAssoc) Insert(block uint64, id blockid.ID) (blockid.ID, bool) {
	c.ensureID(id)
	if f := c.nodeOf[id]; f != noFrame {
		if c.head[c.fset[f]] != f {
			c.detach(f)
			c.pushFront(f)
		}
		return 0, false
	}
	s := int(block & uint64(c.sets-1))
	var victim blockid.ID
	evicted := false
	f := c.free[s]
	if f != noFrame {
		c.free[s] = c.next[f]
	} else {
		// Set full: evict the least-recently-used frame and reuse it.
		f = c.tail[s]
		victim = c.ids[f]
		c.nodeOf[victim] = noFrame
		c.detach(f)
		evicted = true
		c.n--
	}
	c.ids[f] = id
	c.pushFront(f)
	c.nodeOf[id] = int32(f)
	c.n++
	return victim, evicted
}

// Remove deletes a block (invalidation); an absent block is a no-op.
func (c *SetAssoc) Remove(id blockid.ID) {
	f := c.frame(id)
	if f == noFrame {
		return
	}
	c.detach(f)
	s := c.fset[f]
	c.next[f] = c.free[s]
	c.free[s] = f
	c.nodeOf[id] = noFrame
	c.n--
}

// Contains reports residency.
func (c *SetAssoc) Contains(id blockid.ID) bool {
	return c.frame(id) != noFrame
}

// Len returns the number of resident blocks.
func (c *SetAssoc) Len() int { return c.n }

// Capacity returns the total number of blocks the cache can hold.
func (c *SetAssoc) Capacity() int { return c.sets * c.ways }

// Package bitset provides a dense, growable bit set used throughout the
// simulator to track which caches hold a copy of a memory block.
//
// The set is optimised for the common case of small multiprocessors: the
// first 64 bits live inline in the struct, so for n ≤ 64 caches a Set in a
// struct-of-arrays row (sharers []Set) is pointer-free — membership tests
// touch only the row's cache line, and building one allocates nothing.
// Larger sets spill bits 64+ to a heap slice. The zero value is an empty
// set ready for use.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over non-negative integers. The zero value is empty
// and ready to use. Set is not safe for concurrent mutation.
type Set struct {
	// w0 holds bits 0..63 inline.
	w0 uint64
	// hi holds bits 64+ (hi[k] covers bits 64(k+1)..64(k+2)-1); nil until
	// an element ≥ 64 is added.
	hi []uint64
}

// New returns a set with capacity preallocated for indices in [0, n).
// Indices beyond n may still be added; the set grows as needed.
func New(n int) *Set {
	s := &Set{}
	if n > wordBits {
		s.hi = make([]uint64, (n-1)/wordBits)
	}
	return s
}

// grow ensures the set can hold bit i (callers guarantee i ≥ wordBits).
func (s *Set) grow(i int) {
	need := i / wordBits // hi words needed: bit i lives in hi[i/64 - 1]
	if need <= len(s.hi) {
		return
	}
	w := make([]uint64, need)
	copy(w, s.hi)
	s.hi = w
}

// Add inserts i into the set. Negative indices panic: they indicate a
// programming error (cache identifiers are never negative).
func (s *Set) Add(i int) {
	if uint(i) < wordBits {
		s.w0 |= 1 << uint(i)
		return
	}
	if i < 0 {
		panic(fmt.Sprintf("bitset: negative index %d", i))
	}
	s.grow(i)
	s.hi[i/wordBits-1] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set. Removing an absent element is a no-op.
func (s *Set) Remove(i int) {
	if uint(i) < wordBits {
		s.w0 &^= 1 << uint(i)
		return
	}
	if i < 0 || i/wordBits-1 >= len(s.hi) {
		return
	}
	s.hi[i/wordBits-1] &^= 1 << uint(i%wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if uint(i) < wordBits {
		return s.w0&(1<<uint(i)) != 0
	}
	if i < 0 || i/wordBits-1 >= len(s.hi) {
		return false
	}
	return s.hi[i/wordBits-1]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	n := bits.OnesCount64(s.w0)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	if s.w0 != 0 {
		return false
	}
	for _, w := range s.hi {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, retaining capacity.
func (s *Set) Clear() {
	s.w0 = 0
	for i := range s.hi {
		s.hi[i] = 0
	}
}

// Max returns the largest element and true, or (0, false) if empty.
func (s *Set) Max() (int, bool) {
	for wi := len(s.hi) - 1; wi >= 0; wi-- {
		if w := s.hi[wi]; w != 0 {
			return (wi+2)*wordBits - 1 - bits.LeadingZeros64(w), true
		}
	}
	if s.w0 != 0 {
		return wordBits - 1 - bits.LeadingZeros64(s.w0), true
	}
	return 0, false
}

// Sole returns the single element of a one-element set. It returns
// (elem, true) only when Count() == 1.
func (s *Set) Sole() (int, bool) {
	found := -1
	if s.w0 != 0 {
		if bits.OnesCount64(s.w0) > 1 {
			return 0, false
		}
		found = bits.TrailingZeros64(s.w0)
	}
	for wi, w := range s.hi {
		switch bits.OnesCount64(w) {
		case 0:
		case 1:
			if found >= 0 {
				return 0, false
			}
			found = (wi+1)*wordBits + bits.TrailingZeros64(w)
		default:
			return 0, false
		}
	}
	if found < 0 {
		return 0, false
	}
	return found, true
}

// Next returns the smallest element ≥ i, or -1 when no such element
// exists. It enables allocation-free iteration without the closure a
// ForEach call costs — the shape required on engine hot paths:
//
//	for h := s.Next(0); h >= 0; h = s.Next(h + 1) { ... }
//
// Removing the current element (or any smaller one) during such a loop is
// safe: Next re-reads the words on every call and only looks forward.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i < wordBits {
		if w := s.w0 >> uint(i); w != 0 {
			return i + bits.TrailingZeros64(w)
		}
		i = wordBits
	}
	wi := i/wordBits - 1
	if wi >= len(s.hi) {
		return -1
	}
	if w := s.hi[wi] >> uint(i%wordBits); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.hi); wi++ {
		if w := s.hi[wi]; w != 0 {
			return (wi+1)*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ForEach calls fn for every element in ascending order. If fn returns
// false, iteration stops early. The closure argument allocates when it
// captures; on allocation-free paths use Next instead.
func (s *Set) ForEach(fn func(i int) bool) {
	for w := s.w0; w != 0; {
		b := bits.TrailingZeros64(w)
		if !fn(b) {
			return
		}
		w &^= 1 << uint(b)
	}
	for wi, w := range s.hi {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn((wi+1)*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Elems returns the elements in ascending order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// CountExcluding returns the number of elements other than i.
func (s *Set) CountExcluding(i int) int {
	n := s.Count()
	if s.Contains(i) {
		n--
	}
	return n
}

// ContainsOther reports whether the set holds any element other than i.
func (s *Set) ContainsOther(i int) bool {
	w0 := s.w0
	if uint(i) < wordBits {
		w0 &^= 1 << uint(i)
	}
	if w0 != 0 {
		return true
	}
	for wi, w := range s.hi {
		if i >= (wi+1)*wordBits && i < (wi+2)*wordBits {
			w &^= 1 << uint(i%wordBits)
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{w0: s.w0}
	if len(s.hi) > 0 {
		c.hi = make([]uint64, len(s.hi))
		copy(c.hi, s.hi)
	}
	return c
}

// Equal reports whether the two sets contain the same elements.
func (s *Set) Equal(t *Set) bool {
	if s.w0 != t.w0 {
		return false
	}
	long, short := s.hi, t.hi
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// String renders the set as "{0, 3, 17}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

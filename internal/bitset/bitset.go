// Package bitset provides a fixed-capacity dynamic bit set used where
// a single machine word is not enough: the permutation-space search
// tracks failure sets over all n! inputs (120 bits at n=5).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a bit set over [0, Len) backed by 64-bit words. The zero
// value is unusable; construct with New.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity for n elements.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// NewSlab returns k empty sets of capacity n that are views over one
// shared slab of words, which it also returns: set i owns
// slab[i*w : (i+1)*w] with w = (n+63)/64. It makes three allocations
// whatever k is. Bulk writers may fill the sets a word at a time
// through the slab, keeping every bit at or above n clear.
func NewSlab(k, n int) ([]*Set, []uint64) {
	if k < 0 || n < 0 {
		panic(fmt.Sprintf("bitset: negative slab shape %d×%d", k, n))
	}
	w := (n + 63) / 64
	slab := make([]uint64, k*w)
	sets := make([]Set, k)
	ptrs := make([]*Set, k)
	for i := range sets {
		sets[i] = Set{n: n, words: slab[i*w : (i+1)*w : (i+1)*w]}
		ptrs[i] = &sets[i]
	}
	return ptrs, slab
}

// FromIndices builds a set containing exactly the given elements.
func FromIndices(n int, idx ...int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// Len returns the capacity (universe size).
func (s *Set) Len() int { return s.n }

// Add inserts element i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << uint(i&63)
}

// Remove deletes element i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i>>6] &^= 1 << uint(i&63)
}

// Contains reports membership of i.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i>>6]>>uint(i&63)&1 == 1
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of elements present.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no element is present.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Equal reports element-wise equality (capacities must match).
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share an element.
func (s *Set) Intersects(t *Set) bool {
	s.sameCap(t)
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports s ⊆ t.
func (s *Set) SubsetOf(t *Set) bool {
	s.sameCap(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// UnionWith adds every element of t to s (in place).
func (s *Set) UnionWith(t *Set) {
	s.sameCap(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// DiffWith removes every element of t from s (in place): s = s ∖ t.
func (s *Set) DiffWith(t *Set) {
	s.sameCap(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// CountAnd returns |s ∩ t| without materializing the intersection.
func (s *Set) CountAnd(t *Set) int {
	s.sameCap(t)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & t.words[i])
	}
	return c
}

func (s *Set) sameCap(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
}

// ForEach calls f for every element in ascending order; returning
// false stops the iteration early.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			if !f(wi<<6 + b) {
				return
			}
		}
	}
}

// First returns the smallest element, or -1 when empty.
func (s *Set) First() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Words exposes the backing 64-bit words (element i lives at bit i&63
// of word i>>6). The slice is owned by the set: callers must treat it
// as read-only. It exists so bulk consumers (the search solver's word
// rows) can run word-parallel subset/popcount loops without going
// through per-element callbacks.
func (s *Set) Words() []uint64 { return s.words }

// Key returns a string usable as a map key (content-identical sets of
// equal capacity share keys).
func (s *Set) Key() string {
	var sb strings.Builder
	sb.Grow(len(s.words) * 8)
	for _, w := range s.words {
		for b := 0; b < 8; b++ {
			sb.WriteByte(byte(w >> uint(8*b)))
		}
	}
	return sb.String()
}

// String renders the elements, e.g. "{1, 5, 9}".
func (s *Set) String() string {
	var parts []string
	s.ForEach(func(i int) bool {
		parts = append(parts, fmt.Sprint(i))
		return true
	})
	return "{" + strings.Join(parts, ", ") + "}"
}

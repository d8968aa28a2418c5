// Package widevec provides binary vectors for comparator networks
// wider than the 64 lines package bitvec packs into one machine word.
//
// The wide regime is where the paper's polynomial-size test sets stop
// being a convenience and become the only possibility: at n = 128 a
// zero-one sweep (2¹²⁸ inputs) is physically impossible, but Theorem
// 2.5 certifies a merger with n²/4 = 4096 vectors and Theorem 2.4
// certifies a (k,n)-selector with Σᵢ₌₀..k C(n,i) − k − 1, polynomial
// for fixed k. The experiment E15 exercises exactly that.
//
// The engine (package eval) evaluates wide vectors as staged rows of
// words in its word-parallel blocks; a Vec is the read-only form in
// which a wide verdict reports its counterexample.
package widevec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a binary string over an arbitrary number of lines, bit i of
// word i>>6 carrying line i. Vecs are immutable.
type Vec struct {
	n     int
	words []uint64
}

// MaxN is the widest vector a Vec holds.
const MaxN = 4096

// New returns the all-zero vector on n lines.
func New(n int) Vec {
	if n < 0 || n > MaxN {
		panic(fmt.Sprintf("widevec: length %d out of range [0,%d]", n, MaxN))
	}
	return Vec{n: n, words: make([]uint64, (n+63)/64)}
}

// FromWords returns the vector on n lines whose line i is bit i&63 of
// words[i>>6] — the row layout of the engine's staging area. It copies
// the ⌈n/64⌉ words it reads; bits at or beyond line n must be zero.
func FromWords(n int, words []uint64) Vec {
	v := New(n)
	copy(v.words, words[:len(v.words)])
	return v
}

// N returns the number of lines.
func (v Vec) N() int { return v.n }

// Bit returns the value on line i.
func (v Vec) Bit(i int) int {
	v.check(i)
	return int(v.words[i>>6] >> uint(i&63) & 1)
}

func (v Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("widevec: line %d out of range [0,%d)", i, v.n))
	}
}

// Ones returns the number of 1 bits.
func (v Vec) Ones() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Zeros returns the number of 0 bits.
func (v Vec) Zeros() int { return v.n - v.Ones() }

// Equal reports equality of length and contents.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// IsSorted reports whether the vector is nondecreasing (0^a 1^b).
func (v Vec) IsSorted() bool {
	seenOne := false
	for i := 0; i < v.n; i++ {
		b := v.Bit(i)
		if b == 0 && seenOne {
			return false
		}
		if b == 1 {
			seenOne = true
		}
	}
	return true
}

// String renders the vector as '0'/'1' runes.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		sb.WriteByte('0' + byte(v.Bit(i)))
	}
	return sb.String()
}

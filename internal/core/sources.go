package core

import (
	"fmt"
	"math/bits"

	"sortnets/internal/bitvec"
	"sortnets/internal/perm"
)

// The selector and merger test sets are row sources: each call of
// FillRows writes a block of the engine's staging rows (⌈n/64⌉ words,
// line i in bit i&63 of word i>>6) straight from its enumeration
// state, at any width, with no per-vector call (eval.RowSource). At
// n ≤ 64 they also yield one Vec at a time (bitvec.Iterator) for the
// fault matrix, the experiments and testsetgen. One enumeration
// serves every verdict path, so a network gets the same first failure
// after the same number of tests from Check, Do, DoBatch, CheckMany,
// Wide and the fault paths.

// SelectorBinaryTests streams the minimal 0/1 test set T⁺ₖ for the
// (k,n)-selector property: every non-sorted string with at most k
// zeros. |T| = Σᵢ₌₀..k C(n,i) − (k+1) (Theorem 2.4(i)). Sufficiency
// follows from monotonicity: if H (k,n)-selects every σ′ with exactly
// k zeros, then for any σ ≥ σ′ the first k outputs are forced to 0.
// The order is by zero count, then by zero positions in colex order
// (at n ≤ 64, the zero mask in increasing word order), each count's
// first string, the sorted 0^z 1^(n−z), left out.
func SelectorBinaryTests(n, k int) *SelectorTests {
	if k < 1 || k > n {
		panic(fmt.Sprintf("core: selector arity k=%d out of range 1..%d", k, n))
	}
	s := &SelectorTests{n: n, zmax: min(k, n-1)}
	if n > bitvec.MaxN {
		s.ones = make([]uint64, (n+63)/64)
		for w := range s.ones {
			s.ones[w] = onesBelow(n - 64*w)
		}
		s.pos = make([]int, s.zmax)
	}
	s.class(1)
	return s
}

// SelectorTests is the selector test set of SelectorBinaryTests. At
// n ≤ 64 it steps the zero mask with Gosper's hack; beyond, it steps
// the zero positions, raising the lowest one that can rise.
type SelectorTests struct {
	n, zmax, z int
	done       bool
	mask, last uint64   // n ≤ 64: the next zero mask, and class z's last
	pos        []int    // n > 64: the next zero positions, ascending
	ones       []uint64 // n > 64: the all-ones row
}

// class moves to z zeros at the count's second string in colex order,
// or ends the stream past the last count.
func (s *SelectorTests) class(z int) {
	s.z = z
	if z > s.zmax {
		s.done = true
		return
	}
	if s.ones == nil {
		s.mask = 1<<uint(z-1) - 1 | 1<<uint(z)
		s.last = (1<<uint(z) - 1) << uint(s.n-z)
		return
	}
	s.pos = s.pos[:z]
	for i := range s.pos {
		s.pos[i] = i
	}
	s.pos[z-1] = z
}

// FillRows implements eval.RowSource.
//
//sortnets:hotpath
func (s *SelectorTests) FillRows(dst []uint64, lim int) int {
	if s.ones != nil {
		return s.fillWide(dst, lim)
	}
	full := ^uint64(0) >> uint(64-s.n)
	c := 0
	for c < lim && !s.done {
		mask, last := s.mask, s.last
		for ; c < lim; c++ {
			dst[c] = full &^ mask
			if mask == last {
				break
			}
			// Gosper's hack: the next larger mask with as many bits.
			lz := mask + mask&-mask
			mask = lz | (mask^lz)>>(uint(bits.TrailingZeros64(mask))&63)>>2
		}
		if c == lim {
			s.mask = mask
			break
		}
		c++
		s.class(s.z + 1)
	}
	return c
}

// fillWide is FillRows beyond 64 lines.
//
//sortnets:hotpath
func (s *SelectorTests) fillWide(dst []uint64, lim int) int {
	R := len(s.ones)
	c := 0
	for ; c < lim && !s.done; c++ {
		row := dst[c*R : c*R+R]
		copy(row, s.ones)
		for _, p := range s.pos {
			row[p>>6] &^= 1 << uint(p&63)
		}
		// The colex successor: raise the lowest position that can
		// rise by one, and pack the positions below it at the bottom.
		i := 0
		for i+1 < s.z && s.pos[i]+1 == s.pos[i+1] {
			i++
		}
		if s.pos[i]+1 == s.n {
			s.class(s.z + 1)
			continue
		}
		s.pos[i]++
		for j := range s.pos[:i] {
			s.pos[j] = j
		}
	}
	return c
}

// Next implements bitvec.Iterator for n ≤ 64.
func (s *SelectorTests) Next() (bitvec.Vec, bool) {
	if s.ones != nil {
		panic(fmt.Sprintf("core: Next yields vectors of at most 64 lines, the selector test set has %d", s.n))
	}
	var row [1]uint64
	if s.FillRows(row[:], 1) == 0 {
		return bitvec.Vec{}, false
	}
	return bitvec.Vec{N: s.n, Bits: row[0]}, true
}

// MergerBinaryTests streams the minimal 0/1 test set for the
// (n/2,n/2)-merger property: every concatenation σ₁σ₂ of two sorted
// halves that is not itself sorted — σ₁ must contain a 1 and σ₂ a 0.
// |T| = n²/4 (Theorem 2.5(i)). With h = n/2, the order is
// 0^(h−i) 1^i over 0^k 1^(h−k) for i = 1..h, and for each i, k = 1..h.
func MergerBinaryTests(n int) *MergerTests {
	if n%2 != 0 || n < 2 {
		panic(fmt.Sprintf("core: merger tests need even n ≥ 2, got %d", n))
	}
	return &MergerTests{h: n / 2}
}

// MergerTests is the merger test set of MergerBinaryTests.
type MergerTests struct {
	h, next int // test j is (i, k) = (1 + j/h, 1 + j%h); next is the next j
}

// FillRows implements eval.RowSource. It writes the block a row word
// at a time, and within a word one run of k at a time.
//
//sortnets:hotpath
func (s *MergerTests) FillRows(dst []uint64, lim int) int {
	h := s.h
	R := (2*h + 63) / 64
	end := min(s.next+lim, h*h)
	for w := 0; w < R; w++ {
		line := 64 * w // row word w holds lines line..line+63
		second := onesIn(h-line, 2*h-line)
		for j, c := s.next, w; j < end; {
			first := onesIn(h-1-j/h-line, h-line)
			for k := 1 + j%h; k <= h && j < end; k, j, c = k+1, j+1, c+R {
				dst[c] = first | second&^onesBelow(h+k-line)
			}
		}
	}
	rows := end - s.next
	s.next = end
	return rows
}

// Next implements bitvec.Iterator for n ≤ 64.
func (s *MergerTests) Next() (bitvec.Vec, bool) {
	if 2*s.h > bitvec.MaxN {
		panic(fmt.Sprintf("core: Next yields vectors of at most 64 lines, the merger test set has %d", 2*s.h))
	}
	var row [1]uint64
	if s.FillRows(row[:], 1) == 0 {
		return bitvec.Vec{}, false
	}
	return bitvec.Vec{N: 2 * s.h, Bits: row[0]}, true
}

// The permutation test sets are line sources (eval.LineSource): a
// permutation p stands for its n−1 nontrivial threshold vectors
// p.Threshold(t), t = 1..n−1 in that order, which the paper's
// properties judge exactly as they judge p (see package verify).
// FillLines packs ⌊64/(n−1)⌋ whole permutations into each 64-lane
// word, lane q·(n−1)+t−1 carrying threshold t of the word's q-th
// permutation, so line i of a permutation with value v is set on that
// permutation's top v−1 lanes: one bit run, written straight from the
// value. The lanes left over at the top of each word are holes.

// PermThresholds is the threshold stream of a memoized permutation
// family, read in place. FillLines (for 2 ≤ n ≤ 64) and Next draw from
// one cursor: a block that starts inside a permutation Next has begun
// marks its drawn thresholds as holes.
type PermThresholds struct {
	fam   []perm.P // the memoized family, never written
	n     int
	pos   int // stream vectors drawn
	block int // the first permutation of the block FillLines last wrote
}

// FillLines implements eval.LineSource.
//
//sortnets:hotpath
func (s *PermThresholds) FillLines(dst []uint64, lim int, holes []uint64) (lanes, tests int) {
	n, spread := s.n, s.n-1
	per := 64 / spread
	s.block = s.pos / spread
	rest := len(s.fam) - s.block
	if rest == 0 {
		return 0, 0
	}
	W := min(lim/64, (rest+per-1)/per)
	lines := dst[:n*W]
	clear(lines)
	run := onesBelow(spread)
	for g := 0; g < W; g++ {
		first := s.block + g*per
		perms := s.fam[first:min(first+per, len(s.fam))]
		holes[g] = ^onesBelow(len(perms) * spread)
		for q, p := range perms {
			for i, v := range p {
				lines[i*W+g] |= (run &^ onesBelow(n-v)) << uint(q*spread)
			}
		}
	}
	drawn := s.pos % spread
	holes[0] |= onesBelow(drawn)
	tests = min(rest, W*per)*spread - drawn
	s.pos += tests
	return 64 * W, tests
}

// Lane implements eval.LineSource.
func (s *PermThresholds) Lane(j int) bitvec.Vec {
	spread := s.n - 1
	l := j % 64
	return s.fam[s.block+j/64*(64/spread)+l/spread].Threshold(l%spread + 1)
}

// Next implements bitvec.Iterator.
func (s *PermThresholds) Next() (bitvec.Vec, bool) {
	spread := s.n - 1
	if s.pos >= len(s.fam)*spread {
		return bitvec.Vec{}, false
	}
	v := s.fam[s.pos/spread].Threshold(s.pos%spread + 1)
	s.pos++
	return v, true
}

// Perm returns a copy of the family's permutation i, whose thresholds
// are the stream vectors i·(n−1) through i·(n−1)+n−2.
func (s *PermThresholds) Perm(i int) perm.P { return append(perm.P(nil), s.fam[i]...) }

// perms returns a deep copy of the family, in two allocations: one
// backing array for all values, one slice of headers.
func (s *PermThresholds) perms() []perm.P {
	values := make([]int, len(s.fam)*s.n)
	out := make([]perm.P, len(s.fam))
	for i, p := range s.fam {
		out[i] = values[i*s.n : (i+1)*s.n]
		copy(out[i], p)
	}
	return out
}

// onesIn is the word whose bits from..to−1 are set, both clamped to
// 0..64.
//
//sortnets:hotpath
func onesIn(from, to int) uint64 { return onesBelow(to) &^ onesBelow(from) }

// onesBelow is the word whose bits below x (clamped to 0..64) are set.
// A shift by 64 or more is 0 in Go, so x ≥ 64 gives all ones.
//
//sortnets:hotpath
func onesBelow(x int) uint64 { return 1<<uint(max(x, 0)) - 1 }

package bitvec

import "math/bits"

// This file provides streaming enumeration of vector families. The test
// sets of the paper are exponentially large (Theorem 2.2: 2^n − n − 1
// vectors), so the verification engines consume iterators instead of
// materialized slices; materialization is available for the small n used
// in exhaustive experiments.

// Iterator yields a sequence of Vecs. Next returns false when the
// sequence is exhausted; after that, further calls keep returning false.
type Iterator interface {
	Next() (Vec, bool)
}

// Count drains an iterator and returns how many vectors it produced.
func Count(it Iterator) int {
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}

// Collect drains an iterator into a slice, sized once up front when
// the iterator reports its length (as a Span does).
func Collect(it Iterator) []Vec {
	var out []Vec
	if l, ok := it.(interface{ Len() int }); ok {
		out = make([]Vec, 0, l.Len())
	}
	for {
		v, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// All enumerates every vector of length n in increasing word order
// (0^n first, 1^n last): the span of the whole universe.
func All(n int) *Span { return &Span{n: n, to: uint64(Universe(n))} }

// Span enumerates the consecutive words [next, to) of the n-line
// universe in increasing order, optionally minus its sorted words
// (NotSorted). Besides one vector at a time through Next, a span can
// be written a block of consecutive words at a time straight into line
// words (FillLines), which lets the evaluation engine load it
// wholesale instead of enumerating and transposing it.
type Span struct {
	n        int
	next, to uint64
	unsorted bool   // the sorted words are not in the stream
	base     uint64 // the first word of the block FillLines last wrote
}

// Next yields the span's next word. A word x < 2ⁿ is sorted iff
// x = 0 or x + (x & −x) = 2ⁿ: its ones are one run reaching line n−1.
func (s *Span) Next() (Vec, bool) {
	top := uint64(1) << uint(s.n)
	for x := s.next; x < s.to; x++ {
		if !s.unsorted || x != 0 && x+(x&-x) != top {
			s.next = x + 1
			return Vec{N: s.n, Bits: x}, true
		}
	}
	s.next = s.to
	return Vec{}, false
}

// Words returns the words [next, to) the span has left, sorted ones
// included.
func (s *Span) Words() (next, to uint64) { return s.next, s.to }

// Sub returns the span of the words [lo, hi) with s's filter, for lo
// and hi within s.Words(); s is not advanced.
func (s *Span) Sub(lo, hi uint64) Span { return Span{n: s.n, next: lo, to: hi, unsorted: s.unsorted} }

// Len returns how many vectors the span has left.
func (s *Span) Len() int {
	k := int(s.to - s.next)
	if s.unsorted {
		k -= sortedWords(s.n, s.next, s.to, 0, nil)
	}
	return k
}

// FillLines advances the span past its next block and writes it into
// dst, the evaluation engine's wholesale load (a line source): the
// consecutive words [base, base+lanes), where base is the span's next
// word rounded down to a multiple of 64 and lanes ≤ lim (lim ≥ 64),
// line-major at W = ⌈lanes/64⌉ words per line (LoadConsecutive). It
// sets holes[:W] to the block's words that are not in the stream
// (Holes). tests counts the rest, the block's stream vectors. lanes is
// 0 once the span is exhausted.
func (s *Span) FillLines(dst []uint64, lim int, holes []uint64) (lanes, tests int) {
	if s.next >= s.to {
		return 0, 0
	}
	s.base = s.next &^ 63
	lanes = int(min(s.to-s.base, uint64(lim)))
	tests = s.Holes(s.base, lanes, holes)
	s.next = s.base + uint64(lanes)
	LoadConsecutive(dst, s.n, s.base, lanes)
	return lanes, tests
}

// Holes sets holes[:⌈lanes/64⌉] (bit j for word base+j) to the words
// of [base, base+lanes) that are not in the span's stream: those before
// its next word, and the sorted ones when the span drops them. base is
// a multiple of 64 and base+lanes is at most the span's end. It returns
// how many of the words are in the stream.
func (s *Span) Holes(base uint64, lanes int, holes []uint64) (tests int) {
	end := base + uint64(lanes)
	lo := min(max(s.next, base), end) // the first word that can be in the stream
	for g := range holes[:(lanes+63)/64] {
		switch w := base + uint64(64*g); {
		case lo >= w+64:
			holes[g] = ^uint64(0)
		case lo > w:
			holes[g] = 1<<(lo-w) - 1
		default:
			holes[g] = 0
		}
	}
	tests = int(end - lo)
	if s.unsorted {
		tests -= sortedWords(s.n, lo, end, base, holes)
	}
	return tests
}

// Lane returns the word on lane j of the block FillLines last wrote.
func (s *Span) Lane(j int) Vec { return Vec{N: s.n, Bits: s.base + uint64(j)} }

// laneMasks[i] is the bit pattern of line i across the words
// base..base+63 when base is a multiple of 64, for i < 6.
var laneMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA, // line 0 alternates every word
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// LoadConsecutive writes the k n-line words base, base+1, …,
// base+k−1 (base a multiple of 64) line-major into dst at
// W = ⌈k/64⌉ words per line, without per-lane transposition: lane j
// of word g holds base+64g+j, whose line-i bit pattern across the
// word is one of six fixed masks (i < 6) or constant (i ≥ 6). dst must
// hold n·W words.
//
//sortnets:hotpath
func LoadConsecutive(dst []uint64, n int, base uint64, k int) {
	W := (k + 63) / 64
	for i := 0; i < n; i++ {
		row := dst[i*W : i*W+W]
		for g := range row {
			switch {
			case i < 6:
				row[g] = laneMasks[i]
			case (base+uint64(g)*64)>>uint(i)&1 == 1:
				row[g] = ^uint64(0)
			default:
				row[g] = 0
			}
		}
	}
}

// sortedWords counts the sorted n-line words in [lo, hi) — 2ⁿ − 2ᵃ
// for a = 0..n, where a = n is 0ⁿ — setting bit x − base of holes for
// each word x it counts when holes is not nil.
func sortedWords(n int, lo, hi, base uint64, holes []uint64) int {
	count := 0
	top := uint64(1) << uint(n)
	for a := 0; a <= n; a++ {
		if x := top - 1<<uint(a); lo <= x && x < hi {
			count++
			if holes != nil {
				holes[(x-base)>>6] |= 1 << ((x - base) & 63)
			}
		}
	}
	return count
}

// FixedWeight enumerates every vector of length n with exactly k ones,
// in increasing word order, using Gosper's hack to step between
// same-popcount words in O(1).
func FixedWeight(n, k int) Iterator {
	if k < 0 || k > n {
		return &emptyIter{}
	}
	if k == 0 {
		return &singleIter{v: AllZeros(n)}
	}
	return &gosperIter{n: n, cur: uint64(1)<<uint(k) - 1, limit: lowMask(n)}
}

type emptyIter struct{}

func (emptyIter) Next() (Vec, bool) { return Vec{}, false }

type singleIter struct {
	v    Vec
	done bool
}

func (it *singleIter) Next() (Vec, bool) {
	if it.done {
		return Vec{}, false
	}
	it.done = true
	return it.v, true
}

type gosperIter struct {
	n     int
	cur   uint64
	limit uint64
	done  bool
}

func (it *gosperIter) Next() (Vec, bool) {
	if it.done || it.cur > it.limit {
		it.done = true
		return Vec{}, false
	}
	v := Vec{N: it.n, Bits: it.cur}
	// Gosper's hack: next larger word with the same popcount.
	c := it.cur
	lo := c & (^c + 1)
	lz := c + lo
	if lo == 0 || lz == 0 {
		it.done = true
		return v, true
	}
	it.cur = lz | (((c ^ lz) / lo) >> 2)
	return v, true
}

// NotSorted wraps an iterator, dropping every sorted vector. All three
// of the paper's 0/1 test sets are "some universe minus its sorted
// members": a sorted input can never witness a failure because standard
// comparators cannot unsort it.
//
// NotSorted of a span is a span: the same words minus the sorted ones.
func NotSorted(inner Iterator) Iterator {
	if s, ok := inner.(*Span); ok {
		sp := *s
		sp.unsorted = true
		return &sp
	}
	return &filterIter{inner: inner, keep: notSorted}
}

func notSorted(v Vec) bool { return !v.IsSorted() }

// Filter yields only the vectors of inner for which keep returns true.
func Filter(inner Iterator, keep func(Vec) bool) Iterator {
	return &filterIter{inner: inner, keep: keep}
}

type filterIter struct {
	inner Iterator
	keep  func(Vec) bool
}

func (it *filterIter) Next() (Vec, bool) {
	for {
		v, ok := it.inner.Next()
		if !ok {
			return Vec{}, false
		}
		if it.keep(v) {
			return v, true
		}
	}
}

// Slice adapts a materialized slice back into an Iterator.
func Slice(vs []Vec) Iterator { return &sliceIter{vs: vs} }

type sliceIter struct {
	vs []Vec
	i  int
}

func (it *sliceIter) Next() (Vec, bool) {
	if it.i >= len(it.vs) {
		return Vec{}, false
	}
	v := it.vs[it.i]
	it.i++
	return v, true
}

// GrayCode enumerates all 2^n vectors in reflected-Gray-code order, so
// consecutive vectors differ in exactly one line. Used by benchmarks to
// exercise incremental evaluation.
func GrayCode(n int) Iterator {
	return &grayIter{n: n, i: 0, limit: uint64(Universe(n))}
}

type grayIter struct {
	n        int
	i, limit uint64
}

func (it *grayIter) Next() (Vec, bool) {
	if it.i >= it.limit {
		return Vec{}, false
	}
	v := Vec{N: it.n, Bits: it.i ^ (it.i >> 1)}
	it.i++
	return v, true
}

// RankFixedWeight returns the 0-based position of v in the increasing
// word order of all length-n weight-k vectors (the combinatorial number
// system). It is the inverse of UnrankFixedWeight.
func RankFixedWeight(v Vec) int {
	rank := 0
	k := 0
	w := v.Bits
	for w != 0 {
		i := bits.TrailingZeros64(w)
		w &^= 1 << uint(i)
		k++
		rank += binom(i, k)
	}
	return rank
}

// UnrankFixedWeight returns the rank-th (0-based) vector of length n
// with exactly k ones, in increasing word order.
func UnrankFixedWeight(n, k, rank int) Vec {
	var w uint64
	for ; k > 0; k-- {
		// Largest position p with binom(p, k) <= rank.
		p := k - 1
		for binom(p+1, k) <= rank {
			p++
		}
		rank -= binom(p, k)
		w |= 1 << uint(p)
	}
	return New(n, w)
}

// binom is a small local binomial; package comb has the full-featured
// version, but bitvec must not depend upward.
func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

package perm

import (
	"fmt"
	"math/rand"
)

// This file provides rank/unrank in lexicographic order (Lehmer codes)
// and streaming enumeration of all n! permutations. The exhaustive
// permutation sweep is the paper's strawman baseline ("test all n!
// permutations") that the minimal test sets beat; the experiment
// harness uses it as ground truth for small n.

// MaxFactorialN is the largest n for which n! fits an int64 rank.
const MaxFactorialN = 20

// Rank returns the 0-based lexicographic rank of p among all
// permutations of its length. Panics if len(p) > MaxFactorialN.
func (p P) Rank() int64 {
	n := len(p)
	if n > MaxFactorialN {
		panic(fmt.Sprintf("perm: rank of length %d exceeds int64", n))
	}
	// Lehmer code via counting smaller elements to the right.
	var rank int64
	fact := factorials(n)
	for i := 0; i < n; i++ {
		smaller := 0
		for j := i + 1; j < n; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank += int64(smaller) * fact[n-1-i]
	}
	return rank
}

// Unrank returns the permutation of length n with the given 0-based
// lexicographic rank.
func Unrank(n int, rank int64) P {
	if n > MaxFactorialN {
		panic(fmt.Sprintf("perm: unrank of length %d exceeds int64", n))
	}
	fact := factorials(n)
	if rank < 0 || rank >= fact[n] {
		panic(fmt.Sprintf("perm: rank %d out of range for n=%d", rank, n))
	}
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i + 1
	}
	p := make(P, 0, n)
	for i := n - 1; i >= 0; i-- {
		idx := rank / fact[i]
		rank %= fact[i]
		p = append(p, avail[idx])
		avail = append(avail[:idx], avail[idx+1:]...)
	}
	return p
}

func factorials(n int) []int64 {
	f := make([]int64, n+1)
	f[0] = 1
	for i := 1; i <= n; i++ {
		f[i] = f[i-1] * int64(i)
	}
	return f
}

// Iterator yields a stream of permutations.
type Iterator interface {
	Next() (P, bool)
}

// AllLex enumerates all n! permutations in lexicographic order.
func AllLex(n int) Iterator {
	return &lexIter{cur: Identity(n), fresh: true}
}

type lexIter struct {
	cur   P
	fresh bool
	done  bool
}

func (it *lexIter) Next() (P, bool) {
	if it.done {
		return nil, false
	}
	if it.fresh {
		it.fresh = false
		return it.cur.Clone(), true
	}
	if !NextLex(it.cur) {
		it.done = true
		return nil, false
	}
	return it.cur.Clone(), true
}

// NextLex advances p to its lexicographic successor in place, returning
// false when p was the last (descending) permutation. Stepping one
// permutation from Identity visits all n! in AllLex's order without
// allocating.
func NextLex(p P) bool {
	n := len(p)
	i := n - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := n - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
	return true
}

// AllHeap enumerates all n! permutations by Heap's algorithm, which
// swaps exactly one pair between successive outputs — the cheapest
// full-permutation sweep for the exhaustive baselines.
func AllHeap(n int) Iterator {
	return &heapIter{p: Identity(n), c: make([]int, n), fresh: true}
}

type heapIter struct {
	p     P
	c     []int
	i     int
	fresh bool
	done  bool
}

func (it *heapIter) Next() (P, bool) {
	if it.done {
		return nil, false
	}
	if it.fresh {
		it.fresh = false
		return it.p.Clone(), true
	}
	n := len(it.p)
	for it.i < n {
		if it.c[it.i] < it.i {
			if it.i%2 == 0 {
				it.p[0], it.p[it.i] = it.p[it.i], it.p[0]
			} else {
				it.p[it.c[it.i]], it.p[it.i] = it.p[it.i], it.p[it.c[it.i]]
			}
			it.c[it.i]++
			it.i = 0
			return it.p.Clone(), true
		}
		it.c[it.i] = 0
		it.i++
	}
	it.done = true
	return nil, false
}

// SlicePerms adapts a materialized family into an Iterator.
func SlicePerms(ps []P) Iterator { return &sliceIter{ps: ps} }

type sliceIter struct {
	ps []P
	i  int
}

func (it *sliceIter) Next() (P, bool) {
	if it.i >= len(it.ps) {
		return nil, false
	}
	p := it.ps[it.i]
	it.i++
	return p, true
}

// Count drains an iterator and returns the number of permutations.
func Count(it Iterator) int {
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}

// Collect drains an iterator into a slice.
func Collect(it Iterator) []P {
	var out []P
	for {
		p, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// RandomSample returns m distinct-ish random permutations (duplicates
// possible for tiny n where m exceeds n!), used by the fault-coverage
// experiment as the "random test set" baseline.
func RandomSample(n, m int, rng *rand.Rand) []P {
	out := make([]P, m)
	for i := range out {
		out[i] = Random(n, rng)
	}
	return out
}

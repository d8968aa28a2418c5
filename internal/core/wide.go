package core

import (
	"fmt"

	"sortnets/internal/eval"
)

// Wide-width test sets: beyond 64 lines a zero-one sweep is physically
// impossible (2ⁿ inputs), but the paper's merger and selector test
// sets stay polynomial — n²/4 and Σᵢ₌₀..k C(n,i) − k − 1 — so
// certification keeps working. These streams mirror MergerBinaryTests
// and SelectorBinaryTests at any width, writing each vector's words
// straight into the engine's staging row (eval.RowStream).

// CountWide drains a row stream of n-line vectors.
func CountWide(n int, it eval.RowStream) int {
	row := make([]uint64, (n+63)/64)
	c := 0
	for it.NextRow(row) {
		c++
	}
	return c
}

// setOnes sets lines from..to−1 of a row.
func setOnes(row []uint64, from, to int) {
	for from < to {
		end := min(to, from|63+1)
		row[from>>6] |= ^uint64(0) >> uint(64-(end-from)) << uint(from&63)
		from = end
	}
}

// MergerWideTests streams the n²/4 merger tests for any even n:
// 0^(h−i) 1^i over 0^k 1^(h−k) for i, k = 1..h, h = n/2.
func MergerWideTests(n int) eval.RowStream {
	if n%2 != 0 || n < 2 {
		panic(fmt.Sprintf("core: merger tests need even n ≥ 2, got %d", n))
	}
	return &mergerWideIter{h: n / 2, i: 1, k: 1}
}

type mergerWideIter struct {
	h, i, k int
}

func (it *mergerWideIter) NextRow(row []uint64) bool {
	if it.i > it.h {
		return false
	}
	clear(row)
	setOnes(row, it.h-it.i, it.h)
	setOnes(row, it.h+it.k, 2*it.h)
	it.k++
	if it.k > it.h {
		it.k = 1
		it.i++
	}
	return true
}

// SelectorWideTests streams the minimal (k,n)-selector test set for
// any n: every non-sorted vector with at most k zeros, enumerated by
// the zero-position combination odometer (weight 0 first — the
// all-ones vector is sorted and skipped — then single zeros, and so
// on).
func SelectorWideTests(n, k int) eval.RowStream {
	if k < 1 || k > n {
		panic(fmt.Sprintf("core: selector arity k=%d out of range 1..%d", k, n))
	}
	return &selectorWideIter{n: n, k: k, z: 0, pos: nil}
}

type selectorWideIter struct {
	n, k int
	z    int   // current number of zeros
	pos  []int // current zero positions (combination odometer), nil = start of level
}

func (it *selectorWideIter) NextRow(row []uint64) bool {
	for it.advance() {
		// Zeros exactly on lines 0..z−1 make the sorted 0^z 1^(n−z).
		if it.z == 0 || it.pos[it.z-1] == it.z-1 {
			continue
		}
		clear(row)
		setOnes(row, 0, it.n)
		for _, p := range it.pos {
			row[p>>6] &^= 1 << uint(p&63)
		}
		return true
	}
	return false
}

// advance steps the combination odometer, moving to the next zero
// count when the current level is exhausted.
func (it *selectorWideIter) advance() bool {
	for {
		if it.pos == nil {
			if it.z > it.k || it.z > it.n {
				return false
			}
			it.pos = make([]int, it.z)
			for i := range it.pos {
				it.pos[i] = i
			}
			return true
		}
		// Next combination of size z from [0,n).
		i := it.z - 1
		for i >= 0 && it.pos[i] == it.n-it.z+i {
			i--
		}
		if i < 0 {
			it.z++
			it.pos = nil
			continue
		}
		it.pos[i]++
		for j := i + 1; j < it.z; j++ {
			it.pos[j] = it.pos[j-1] + 1
		}
		return true
	}
}

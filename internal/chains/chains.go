// Package chains builds symmetric chain decompositions (SCD) of the
// Boolean lattice {0,1}^n and converts chains into permutations whose
// covers realize them. This is the machinery behind the *optimal
// permutation test sets* of Theorems 2.2(ii) and 2.4(ii):
//
//   - The cover of a permutation (package perm) is a maximal chain
//     ∅ = A₀ ⊂ A₁ ⊂ … ⊂ Aₙ of 1-position sets, one per weight.
//   - A family of permutations is a sorter test set iff its covers
//     blanket every non-sorted string; by Dilworth the middle level
//     forces at least C(n,⌊n/2⌋) chains, and an SCD achieves it.
//   - The classical de Bruijn–Tengbergen–Kruyswijk recursion (with the
//     new line prepended at the top) keeps the all-sorted chain
//     0ⁿ ⊂ 0ⁿ⁻¹1 ⊂ … ⊂ 1ⁿ intact as one chain of the decomposition;
//     dropping it — its strings are all sorted and never needed as
//     tests — leaves exactly C(n,⌊n/2⌋) − 1 chains, matching the
//     paper's bound, which Yao's observation states is achievable and
//     Knuth's exercise 6.5.1-1 constructs.
//   - For the (k,n)-selector, only the chains starting at level ≤ k are
//     needed; their count telescopes to C(n, min(k,⌊n/2⌋)), realizing
//     Knuth's B(n,k) family from the same decomposition.
package chains

import (
	"fmt"
	"math/bits"

	"sortnets/internal/bitvec"
	"sortnets/internal/perm"
)

// Chain is an ascending chain of vectors: consecutive elements differ
// by turning exactly one 0 into a 1, so weights are consecutive.
type Chain []bitvec.Vec

// Bottom returns the lowest (smallest-weight) element.
func (c Chain) Bottom() bitvec.Vec { return c[0] }

// Top returns the highest element.
func (c Chain) Top() bitvec.Vec { return c[len(c)-1] }

// Validate checks the chain invariant: each step adds exactly one 1.
func (c Chain) Validate() error {
	for i := 1; i < len(c); i++ {
		if c[i].N != c[i-1].N {
			return fmt.Errorf("chains: length mismatch at step %d", i)
		}
		if !bitvec.Leq(c[i-1], c[i]) || c[i].Ones() != c[i-1].Ones()+1 {
			return fmt.Errorf("chains: %s -> %s is not a single-element step", c[i-1], c[i])
		}
	}
	return nil
}

// IsSymmetric reports whether the chain spans levels [i, n−i].
func (c Chain) IsSymmetric() bool {
	n := c[0].N
	return c.Bottom().Ones()+c.Top().Ones() == n
}

// Decompose returns a symmetric chain decomposition of {0,1}^n: the
// chains partition all 2^n vectors, each spans levels [i, n−i], and
// there are exactly C(n,⌊n/2⌋) of them. The first chain returned is
// always the all-sorted chain 0ⁿ ⊂ 0ⁿ⁻¹1 ⊂ … ⊂ 1ⁿ.
//
// Recursion (dBTK, prepending the new top line): every chain
// c_lo ⊂ … ⊂ c_hi over n−1 lines spawns
//
//	0c_lo ⊂ … ⊂ 0c_hi ⊂ 1c_hi   and   1c_lo ⊂ … ⊂ 1c_hi₋₁,
//
// the second dropped when the parent was a singleton. Prepending at
// the top (line 1) rather than appending keeps 0^a1^b strings together,
// so the sorted chain survives each level of the recursion.
func Decompose(n int) []Chain {
	if n < 0 {
		panic(fmt.Sprintf("chains: negative n %d", n))
	}
	return decompose(n, n)
}

// decompose returns the chains of Decompose(n) whose bottom sits at
// level ≤ k, in the same order. A chain's bottom level never falls
// down the recursion — the long child keeps its parent's bottom and
// the short child raises it by one — so the recursion is pruned to
// bottom ≤ k at every level and costs the chains kept, not 2ⁿ.
func decompose(n, k int) []Chain {
	if n == 0 {
		return []Chain{{bitvec.AllZeros(0)}}
	}
	prev := decompose(n-1, k)
	out := make([]Chain, 0, len(prev)*2)
	for _, c := range prev {
		// prepend0(x) keeps bits in place (new line 0 carries 0);
		// prepend1(x) sets bit 0 and shifts the rest up one line.
		long := make(Chain, 0, len(c)+1)
		for _, v := range c {
			long = append(long, prepend(v, 0))
		}
		long = append(long, prepend(c.Top(), 1))
		out = append(out, long)
		if len(c) > 1 && c.Bottom().Ones() < k {
			short := make(Chain, 0, len(c)-1)
			for _, v := range c[:len(c)-1] {
				short = append(short, prepend(v, 1))
			}
			out = append(out, short)
		}
	}
	return out
}

// prepend returns the vector with bit b inserted at line 0 (the top),
// shifting the existing lines down by one.
func prepend(v bitvec.Vec, b int) bitvec.Vec {
	w := v.Bits << 1
	if b == 1 {
		w |= 1
	}
	return bitvec.New(v.N+1, w)
}

// ExtendMaximal extends a symmetric chain to a maximal chain from 0ⁿ to
// 1ⁿ: below the bottom, ones are removed lowest-line-first; above the
// top, zeros are filled lowest-line-first. The particular extension is
// irrelevant to the covering argument — extensions only ever add
// already-covered levels — but it is deterministic for reproducibility.
func ExtendMaximal(c Chain) Chain {
	n := c[0].N
	var down Chain
	for v := c.Bottom(); v.Ones() > 0; {
		low := bits.TrailingZeros64(v.Bits)
		v = v.SetBit(low, 0)
		down = append(down, v)
	}
	// down was collected top-down; reverse onto the front.
	full := make(Chain, 0, n+1)
	for i := len(down) - 1; i >= 0; i-- {
		full = append(full, down[i])
	}
	full = append(full, c...)
	for v := c.Top(); v.Ones() < n; {
		low := bits.TrailingZeros64(^v.Bits & lowMask(n))
		v = v.SetBit(low, 1)
		full = append(full, v)
	}
	return full
}

func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// ToPermutation converts a maximal chain A₀ ⊂ … ⊂ Aₙ into the unique
// permutation whose cover is exactly that chain: if line e is the
// element added at step t (A_t \ A_{t−1}), it must hold the t-th
// largest value, so π(e) = n+1−t.
func ToPermutation(c Chain) (perm.P, error) {
	n := c[0].N
	if len(c) != n+1 || c.Bottom().Ones() != 0 || c.Top().Ones() != n {
		return nil, fmt.Errorf("chains: ToPermutation needs a maximal chain, got levels %d..%d of n=%d",
			c.Bottom().Ones(), c.Top().Ones(), n)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p := make(perm.P, n)
	for t := 1; t <= n; t++ {
		added := c[t].Bits &^ c[t-1].Bits
		e := bits.TrailingZeros64(added)
		p[e] = n + 1 - t
	}
	return p, nil
}

// SortedChain returns the all-sorted maximal chain 0ⁿ ⊂ … ⊂ 1ⁿ, whose
// permutation is the identity — the chain every optimal test set drops.
func SortedChain(n int) Chain {
	c := make(Chain, 0, n+1)
	for k := 0; k <= n; k++ {
		c = append(c, bitvec.SortedWithOnes(n, k))
	}
	return c
}

// IsSortedChain reports whether every element of the chain is sorted.
func IsSortedChain(c Chain) bool {
	for _, v := range c {
		if !v.IsSorted() {
			return false
		}
	}
	return true
}

// SorterPermutations returns the optimal permutation test set for the
// sorting property: C(n,⌊n/2⌋) − 1 permutations whose covers include
// every non-sorted binary string (Theorem 2.2(ii)). It is the SCD with
// the sorted chain removed, each remaining chain extended to maximal
// and converted to its permutation.
func SorterPermutations(n int) []perm.P {
	return chainFamilyPerms(n, n)
}

// SelectorPermutations returns the optimal permutation test set for the
// (k,n)-selector property: C(n, min(k,⌊n/2⌋)) − 1 permutations whose
// covers include every non-sorted string with at most k zeros
// (Theorem 2.4(ii)). Only chains starting at level ≤ k participate: a
// string with z ≤ k zeros sits at level n−z, and its SCD chain spans
// [i, n−i] with i ≤ z ≤ k.
func SelectorPermutations(n, k int) []perm.P {
	return chainFamilyPerms(n, k)
}

func chainFamilyPerms(n, k int) []perm.P {
	var out []perm.P
	for _, c := range decompose(n, k) {
		if IsSortedChain(c) {
			continue // the identity permutation: covers only sorted strings
		}
		p, err := ToPermutation(ExtendMaximal(c))
		if err != nil {
			panic(err) // SCD chains always extend to maximal chains
		}
		out = append(out, p)
	}
	return out
}

// MergerPermutations returns the paper's n/2 merger test permutations
// τ_i = (1 2 … i, i+1+n/2 … n, i+1 … i+n/2) for i = 0..n/2−1
// (Theorem 2.5(ii)): lines 1..i carry 1..i, the rest of the top half
// carries the n/2−i largest values in order, and the bottom half
// carries the middle values in order. The cover of τ_i contains
// 0^i 1^(n/2−i) 0^k 1^(n/2−k) for every k.
func MergerPermutations(n int) []perm.P {
	if n%2 != 0 {
		panic(fmt.Sprintf("chains: merger permutations need even n, got %d", n))
	}
	h := n / 2
	out := make([]perm.P, 0, h)
	for i := 0; i < h; i++ {
		p := make(perm.P, n)
		for j := 0; j < i; j++ {
			p[j] = j + 1
		}
		for j := i; j < h; j++ {
			p[j] = j + 1 + h
		}
		for j := 0; j < h; j++ {
			p[h+j] = i + 1 + j
		}
		out = append(out, p)
	}
	return out
}

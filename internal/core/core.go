// Package core implements the central results of Chung & Ravikumar,
// "Bounds on the Size of Test Sets for Sorting and Related Networks"
// (ICPP 1987 / Discrete Mathematics 81, 1990): the exact minimal test
// sets for deciding whether an arbitrary comparator network is a
// sorter, a (k,n)-selector, or an (n/2,n/2)-merger, for both 0/1 and
// permutation inputs, together with the Lemma 2.1 adversarial
// construction that proves the bounds tight.
//
// The six minimal test sets and their exact sizes:
//
//	Sorter,   0/1:   all non-sorted strings            2ⁿ − n − 1
//	Sorter,   perm:  SCD chain family                  C(n,⌊n/2⌋) − 1
//	Selector, 0/1:   non-sorted strings, ≤ k zeros     Σᵢ₌₀..k C(n,i) − k − 1
//	Selector, perm:  truncated SCD chain family        C(n,min(k,⌊n/2⌋)) − 1
//	Merger,   0/1:   sorted halves, unsorted whole     n²/4
//	Merger,   perm:  the τᵢ family                     n/2
//
// Lower bounds are witnessed constructively: AlmostSorter(σ) yields a
// network that sorts everything except σ, so no test set may omit any
// non-sorted σ; closure formulas (comb package) and chain covers
// (chains package) give the matching upper bounds. Every claim is
// machine-checked in the tests and the experiment harness.
package core

import (
	"fmt"
	"sync"

	"sortnets/internal/bitvec"
	"sortnets/internal/chains"
	"sortnets/internal/perm"
)

// SorterBinaryTests streams the minimal 0/1 test set for the sorting
// property: every non-sorted string of length n, in increasing word
// order. |T| = 2ⁿ − n − 1 (Theorem 2.2(i)); by Lemma 2.1 no smaller
// set works, and by the zero-one principle no larger set is needed.
func SorterBinaryTests(n int) bitvec.Iterator {
	return bitvec.NotSorted(bitvec.All(n))
}

// permFamilyCache memoizes the permutation test families. They are
// fixed mathematical objects per (property, n, k) — building one costs
// a full symmetric-chain decomposition, so verdict paths that certify
// many networks of the same width would otherwise rebuild the family
// per call (it dominated the permutation-verdict profile). Values are
// the canonical families and are never written: the *PermThresholds
// sources read them in place, and the *PermTests functions hand out
// deep copies.
var permFamilyCache sync.Map // permFamilyKey -> []perm.P

type permFamilyKey struct {
	prop string
	n, k int
}

// permFamily is the threshold stream of the family memoized under key.
func permFamily(key permFamilyKey, build func() []perm.P) *PermThresholds {
	v, ok := permFamilyCache.Load(key)
	if !ok {
		v, _ = permFamilyCache.LoadOrStore(key, build())
	}
	return &PermThresholds{fam: v.([]perm.P), n: key.n}
}

// SorterPermTests returns the minimal permutation test set for sorting:
// C(n,⌊n/2⌋) − 1 permutations (Theorem 2.2(ii)), realized by the
// symmetric chain decomposition with the identity chain dropped.
// Families are memoized per n; the returned slice is the caller's own
// copy.
func SorterPermTests(n int) []perm.P { return SorterPermThresholds(n).perms() }

// SorterPermThresholds streams the thresholds of SorterPermTests(n).
func SorterPermThresholds(n int) *PermThresholds {
	return permFamily(permFamilyKey{"sorter", n, 0}, func() []perm.P {
		return chains.SorterPermutations(n)
	})
}

// SelectorPermTests returns the minimal permutation test set for the
// (k,n)-selector property: C(n,min(k,⌊n/2⌋)) − 1 permutations
// (Theorem 2.4(ii)). Families are memoized per (n,k); the returned
// slice is the caller's own copy.
func SelectorPermTests(n, k int) []perm.P { return SelectorPermThresholds(n, k).perms() }

// SelectorPermThresholds streams the thresholds of
// SelectorPermTests(n, k).
func SelectorPermThresholds(n, k int) *PermThresholds {
	if k < 1 || k > n {
		panic(fmt.Sprintf("core: selector arity k=%d out of range 1..%d", k, n))
	}
	return permFamily(permFamilyKey{"selector", n, k}, func() []perm.P {
		return chains.SelectorPermutations(n, k)
	})
}

// MergerPermTests returns the minimal permutation test set for the
// (n/2,n/2)-merger property: the n/2 permutations τ₀..τ_{n/2−1}
// (Theorem 2.5(ii)). Families are memoized per n; the returned slice
// is the caller's own copy.
func MergerPermTests(n int) []perm.P { return MergerPermThresholds(n).perms() }

// MergerPermThresholds streams the thresholds of MergerPermTests(n).
func MergerPermThresholds(n int) *PermThresholds {
	return permFamily(permFamilyKey{"merger", n, 0}, func() []perm.P {
		return chains.MergerPermutations(n)
	})
}

package chains

import (
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/comb"
	"sortnets/internal/perm"
)

func TestDecomposePartitionsLattice(t *testing.T) {
	for n := 0; n <= 14; n++ {
		seen := make(map[uint64]bool)
		total := 0
		for _, c := range Decompose(n) {
			if err := c.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for _, v := range c {
				if v.N != n {
					t.Fatalf("n=%d: vector of length %d", n, v.N)
				}
				if seen[v.Bits] {
					t.Fatalf("n=%d: %s in two chains", n, v)
				}
				seen[v.Bits] = true
				total++
			}
		}
		if total != bitvec.Universe(n) {
			t.Errorf("n=%d: chains hold %d vectors, want 2^n=%d", n, total, bitvec.Universe(n))
		}
	}
}

func TestDecomposeIsSymmetric(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for _, c := range Decompose(n) {
			if !c.IsSymmetric() {
				t.Errorf("n=%d: chain %v spans levels %d..%d, not symmetric",
					n, c, c.Bottom().Ones(), c.Top().Ones())
			}
		}
	}
}

func TestDecomposeChainCount(t *testing.T) {
	// Exactly C(n,⌊n/2⌋) chains — Dilworth's bound, achieved.
	for n := 0; n <= 16; n++ {
		got := len(Decompose(n))
		want := int(comb.MustBinomial(n, n/2))
		if got != want {
			t.Errorf("n=%d: %d chains, want C(n,⌊n/2⌋)=%d", n, got, want)
		}
	}
}

func TestDecomposeContainsSortedChain(t *testing.T) {
	for n := 1; n <= 12; n++ {
		found := 0
		for _, c := range Decompose(n) {
			if IsSortedChain(c) {
				found++
				if len(c) != n+1 {
					t.Errorf("n=%d: sorted chain has %d elements, want full n+1", n, len(c))
				}
			}
		}
		if found != 1 {
			t.Errorf("n=%d: %d all-sorted chains, want exactly 1", n, found)
		}
	}
}

func TestChainStartLevelCounts(t *testing.T) {
	// Chains starting at level i number C(n,i) − C(n,i−1); cumulative
	// counts telescope to C(n,k) — the selector family size.
	for n := 1; n <= 12; n++ {
		starts := map[int]int{}
		for _, c := range Decompose(n) {
			starts[c.Bottom().Ones()]++
		}
		cum := 0
		for k := 0; k <= n/2; k++ {
			cum += starts[k]
			if want := int(comb.MustBinomial(n, k)); cum != want {
				t.Errorf("n=%d: chains with start ≤ %d = %d, want C(n,k)=%d", n, k, cum, want)
			}
		}
	}
}

func TestExtendMaximal(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for _, c := range Decompose(n) {
			m := ExtendMaximal(c)
			if len(m) != n+1 {
				t.Fatalf("n=%d: extension has %d elements", n, len(m))
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if m.Bottom().Ones() != 0 || m.Top().Ones() != n {
				t.Fatalf("n=%d: extension spans %d..%d", n, m.Bottom().Ones(), m.Top().Ones())
			}
			// The original chain is a contiguous segment of the extension.
			off := c.Bottom().Ones()
			for i, v := range c {
				if m[off+i] != v {
					t.Fatalf("n=%d: extension lost element %s", n, v)
				}
			}
		}
	}
}

func TestToPermutationCoverIsChain(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for _, c := range Decompose(n) {
			m := ExtendMaximal(c)
			p, err := ToPermutation(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("n=%d: invalid permutation %s: %v", n, p, err)
			}
			cover := p.Cover()
			for i, v := range m {
				if cover[i] != v {
					t.Fatalf("n=%d: cover of %s diverges from chain at level %d: %s vs %s",
						n, p, i, cover[i], v)
				}
			}
		}
	}
}

func TestToPermutationRejectsPartialChain(t *testing.T) {
	c := Chain{bitvec.MustFromString("01"), bitvec.MustFromString("11")}
	if _, err := ToPermutation(c); err == nil {
		t.Error("partial chain should be rejected")
	}
}

func TestSortedChainIsIdentity(t *testing.T) {
	for n := 1; n <= 10; n++ {
		p, err := ToPermutation(SortedChain(n))
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(perm.Identity(n)) {
			t.Errorf("n=%d: sorted chain converts to %s, want identity", n, p)
		}
	}
}

func TestSorterPermutationsSizeAndCoverage(t *testing.T) {
	for n := 1; n <= 13; n++ {
		ps := SorterPermutations(n)
		want := int(comb.MustBinomial(n, n/2)) - 1
		if len(ps) != want {
			t.Errorf("n=%d: %d permutations, want C(n,⌊n/2⌋)−1=%d", n, len(ps), want)
		}
		// Covers must blanket every non-sorted string.
		covered := perm.CoverSet(ps)
		it := bitvec.NotSorted(bitvec.All(n))
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if !covered[v] {
				t.Fatalf("n=%d: non-sorted %s not covered", n, v)
			}
		}
		// No permutation in the set is the identity.
		for _, p := range ps {
			if p.IsSorted() {
				t.Errorf("n=%d: test set contains identity", n)
			}
		}
	}
}

func TestSelectorPermutationsSizeAndCoverage(t *testing.T) {
	for n := 2; n <= 11; n++ {
		for k := 1; k <= n; k++ {
			ps := SelectorPermutations(n, k)
			m := n / 2
			if k < m {
				m = k
			}
			want := int(comb.MustBinomial(n, m)) - 1
			if len(ps) != want {
				t.Errorf("n=%d k=%d: %d permutations, want %d", n, k, len(ps), want)
			}
			covered := perm.CoverSet(ps)
			for z := 0; z <= k; z++ {
				it := bitvec.NotSorted(bitvec.FixedWeight(n, n-z))
				for {
					v, ok := it.Next()
					if !ok {
						break
					}
					if !covered[v] {
						t.Fatalf("n=%d k=%d: %s (zeros=%d) not covered", n, k, v, v.Zeros())
					}
				}
			}
		}
	}
}

func TestSelectorPermutationsEveryPrefixSubset(t *testing.T) {
	// The B(n,k) view: for every t ≤ k, every t-subset of lines appears
	// as the positions of the t LARGEST values of some permutation in
	// the family ∪ {identity} — i.e. every weight-t-complement string is
	// covered. Spot-check n=8, k=3 directly on subsets.
	n, k := 8, 3
	ps := append(SelectorPermutations(n, k), perm.Identity(n))
	covered := perm.CoverSet(ps)
	for t_ := 0; t_ <= k; t_++ {
		it := bitvec.FixedWeight(n, n-t_) // strings with t_ zeros
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if !covered[v] {
				t.Fatalf("string %s with %d zeros not covered", v, t_)
			}
		}
	}
}

func TestMergerPermutations(t *testing.T) {
	for n := 2; n <= 16; n += 2 {
		ps := MergerPermutations(n)
		if len(ps) != n/2 {
			t.Fatalf("n=%d: %d permutations, want n/2", n, len(ps))
		}
		for _, p := range ps {
			if err := p.Validate(); err != nil {
				t.Fatalf("n=%d: %s invalid: %v", n, p, err)
			}
		}
		// Covers must include every merger test string
		// σ₁σ₂ (halves sorted, concatenation not).
		covered := perm.CoverSet(ps)
		h := n / 2
		for i := 1; i <= h; i++ {
			for j := 1; j <= h; j++ {
				v := bitvec.Concat(bitvec.SortedWithOnes(h, i), bitvec.SortedWithOnes(h, h-j))
				if v.IsSorted() {
					continue
				}
				if !covered[v] {
					t.Fatalf("n=%d: merger string %s not covered", n, v)
				}
			}
		}
	}
}

func TestMergerPermutationsPaperExample(t *testing.T) {
	// n=6, i=1: τ₁ = (1 5 6 2 3 4).
	ps := MergerPermutations(6)
	if got := ps[1].String(); got != "(1 5 6 2 3 4)" {
		t.Errorf("τ₁ = %s, want (1 5 6 2 3 4)", got)
	}
	// i=0: τ₀ = (4 5 6 1 2 3).
	if got := ps[0].String(); got != "(4 5 6 1 2 3)" {
		t.Errorf("τ₀ = %s, want (4 5 6 1 2 3)", got)
	}
}

// filteredFamilyPerms is the selector family built from the whole
// decomposition: every chain of Decompose(n) that starts at level ≤ k,
// the sorted chain dropped.
func filteredFamilyPerms(n, k int) []perm.P {
	var out []perm.P
	for _, c := range Decompose(n) {
		if c.Bottom().Ones() > k || IsSortedChain(c) {
			continue
		}
		p, err := ToPermutation(ExtendMaximal(c))
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// TestPrunedDecompositionMatchesFiltered pins the pruned recursion to
// the filtered whole decomposition: for every n ≤ 14 and k ≤ n the
// same chains, vector for vector, and the same permutations, in the
// same order.
func TestPrunedDecompositionMatchesFiltered(t *testing.T) {
	for n := 0; n <= 14; n++ {
		full := Decompose(n)
		for k := 0; k <= n; k++ {
			var want []Chain
			for _, c := range full {
				if c.Bottom().Ones() <= k {
					want = append(want, c)
				}
			}
			got := decompose(n, k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: %d chains, filtered decomposition has %d", n, k, len(got), len(want))
			}
			for i := range got {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("n=%d k=%d chain %d: %v, want %v", n, k, i, got[i], want[i])
				}
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("n=%d k=%d chain %d: %v, want %v", n, k, i, got[i], want[i])
					}
				}
			}
			if k == 0 {
				continue
			}
			gotPerms, wantPerms := chainFamilyPerms(n, k), filteredFamilyPerms(n, k)
			if len(gotPerms) != len(wantPerms) {
				t.Fatalf("n=%d k=%d: %d permutations, filtered family has %d", n, k, len(gotPerms), len(wantPerms))
			}
			for i := range gotPerms {
				if !gotPerms[i].Equal(wantPerms[i]) {
					t.Fatalf("n=%d k=%d permutation %d: %v, want %v", n, k, i, gotPerms[i], wantPerms[i])
				}
			}
		}
	}
}

package search

import (
	"math/rand"
	"sort"
	"testing"

	"sortnets/internal/bitset"
	"sortnets/internal/network"
	"sortnets/internal/perm"
)

func TestPermBehaviorMatchesNetworkEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		w := network.Random(n, rng.Intn(3*n), rng)
		b := PermIdentity(n)
		for _, c := range w.Comps {
			b = b.Apply(n, c)
		}
		inputs := permInputs(n)
		for r, p := range inputs {
			want := w.Apply(p)
			got := b.Output(n, r)
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("behaviour table wrong for %s on %s", w, p)
				}
			}
		}
	}
}

func TestPermClosureBijectsWithBinaryClosure(t *testing.T) {
	// Floyd's correspondence, at the level of whole behaviour spaces:
	// a network's permutation behaviour is determined by (and
	// determines) its binary behaviour, so the closures have equal
	// cardinality.
	for n := 2; n <= 4; n++ {
		for h := 1; h < n; h++ {
			pb, err := PermClosure(n, Comparators(n, h), 0)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := Closure(n, Comparators(n, h), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(pb) != len(bb) {
				t.Errorf("n=%d h=%d: perm closure %d != binary closure %d",
					n, h, len(pb), len(bb))
			}
		}
	}
}

func TestMinimumPermTestSetTheorem22ii(t *testing.T) {
	// C(n,⌊n/2⌋) − 1, confirmed by exhaustive computation over ALL
	// network behaviours.
	want := map[int]int{2: 1, 3: 2, 4: 5, 5: 9}
	for n, expected := range want {
		r, err := MinimumPermTestSet(n, n-1, PermSorterAccepts, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Exact {
			t.Fatalf("n=%d: not certified exact", n)
		}
		if r.Size != expected {
			t.Errorf("n=%d: minimum %d, want C(n,n/2)-1 = %d", n, r.Size, expected)
		}
		for _, p := range r.Tests {
			if p.IsSorted() {
				t.Errorf("n=%d: identity in minimum test set", n)
			}
		}
	}
}

func TestMinimumPermTestSetDeBruijn(t *testing.T) {
	// Height-1 networks: exactly ONE permutation test suffices, and
	// the reverse permutation is a valid witness (it hits every
	// failure set).
	for n := 2; n <= 5; n++ {
		r, err := MinimumPermTestSet(n, 1, PermSorterAccepts, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Exact || r.Size != 1 {
			t.Fatalf("n=%d: height-1 minimum %d (exact=%v), want exactly 1", n, r.Size, r.Exact)
		}
		// The reverse permutation must itself be a valid single test:
		// every bad height-1 behaviour fails it.
		behaviors, err := PermClosure(n, Comparators(n, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		fam := PermFailureFamily(n, behaviors, PermSorterAccepts)
		revRank := int(perm.Reverse(n).Rank())
		for _, s := range fam {
			if !s.Contains(revRank) {
				t.Fatalf("n=%d: a height-1 non-sorter passes the reverse permutation", n)
			}
		}
	}
}

func TestMinimumPermTestSetHeight2(t *testing.T) {
	// New numbers: height-2 networks already need the full
	// C(n,⌊n/2⌋)−1 permutation tests, matching the binary finding.
	want := map[int]int{3: 2, 4: 5, 5: 9}
	for n, expected := range want {
		r, err := MinimumPermTestSet(n, 2, PermSorterAccepts, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Exact || r.Size != expected {
			t.Errorf("n=%d: height-2 minimum %d (exact=%v), want %d", n, r.Size, r.Exact, expected)
		}
	}
}

func TestMinimumPermTestSetSelector(t *testing.T) {
	// Theorem 2.4(ii) at n=4: C(4,min(2,k)) − 1.
	want := map[int]int{1: 3, 2: 5, 3: 5, 4: 5}
	for k, expected := range want {
		r, err := MinimumPermTestSet(4, 3, PermSelectorAccepts(k), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Exact || r.Size != expected {
			t.Errorf("k=%d: minimum %d (exact=%v), want %d", k, r.Size, r.Exact, expected)
		}
	}
}

func TestMinimumPermTestSetMerger(t *testing.T) {
	// Theorem 2.5(ii) at n=4: exactly n/2 = 2 permutations.
	r, err := MinimumPermTestSet(4, 3, PermMergerAccepts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || r.Size != 2 {
		t.Fatalf("merger minimum %d (exact=%v), want 2", r.Size, r.Exact)
	}
}

func TestPermFailureFamilyOfAlmostSorterShape(t *testing.T) {
	// Sanity check on the empty network at n=3: it outputs its input
	// unchanged, so its failure set is exactly the 5 non-identity
	// permutations.
	behaviors := []PermBehavior{PermIdentity(3)}
	fam := PermFailureFamily(3, behaviors, PermSorterAccepts)
	if len(fam) != 1 {
		t.Fatalf("family size %d", len(fam))
	}
	if fam[0].Count() != 5 {
		t.Errorf("empty network fails %d perms, want 5", fam[0].Count())
	}
}

func TestMinHittingSetBitsExactCases(t *testing.T) {
	mk := func(idx ...int) *bitset.Set { return bitset.FromIndices(16, idx...) }
	cases := []struct {
		fam  []*bitset.Set
		want int
	}{
		{nil, 0},
		{[]*bitset.Set{mk(3)}, 1},
		{[]*bitset.Set{mk(0, 1), mk(0, 2), mk(1, 2)}, 2},
		{[]*bitset.Set{mk(0), mk(1), mk(2)}, 3},
		{[]*bitset.Set{mk(0, 1), mk(2, 3)}, 2},
		{[]*bitset.Set{mk(1, 2), mk(0, 1), mk(2, 3), mk(0, 3)}, 2},
	}
	for i, c := range cases {
		r := MinHittingSetBits(16, c.fam, 0)
		if !r.Exact {
			t.Errorf("case %d: not exact", i)
		}
		if r.Size != c.want {
			t.Errorf("case %d: size %d, want %d", i, r.Size, c.want)
		}
		for _, s := range c.fam {
			if !s.Intersects(r.Elements) {
				t.Errorf("case %d: set %s unhit", i, s)
			}
		}
	}
}

func TestMinHittingSetBitsAgreesWithWordVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		var fam64 []uint64
		var famBits []*bitset.Set
		for i := 0; i < 1+rng.Intn(10); i++ {
			m := rng.Uint64() & 0x3FF
			if m == 0 {
				continue
			}
			fam64 = append(fam64, m)
			s := bitset.New(10)
			for b := 0; b < 10; b++ {
				if m>>uint(b)&1 == 1 {
					s.Add(b)
				}
			}
			famBits = append(famBits, s)
		}
		wordSize := popcount(MinHittingSet(fam64))
		bitsRes := MinHittingSetBits(10, famBits, 0)
		if !bitsRes.Exact || bitsRes.Size != wordSize {
			t.Fatalf("disagreement: word %d vs bits %d (exact=%v) on %v",
				wordSize, bitsRes.Size, bitsRes.Exact, fam64)
		}
	}
}

func popcount(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

func TestMinHittingSetBitsPanicsOnEmptySet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MinHittingSetBits(4, []*bitset.Set{bitset.New(4)}, 0)
}

func TestPermTestSetResultString(t *testing.T) {
	r := PermTestSetResult{N: 4, Height: 2, Size: 5, Exact: true}
	if r.String() == "" {
		t.Error("empty string")
	}
	r.Exact = false
	if r.String() == "" {
		t.Error("empty string")
	}
}

// permInputs reads permInputTable(n) back as permutations.
func permInputs(n int) []perm.P {
	table := permInputTable(n)
	out := make([]perm.P, 0, len(table)/n)
	for r := 0; r < len(table); r += n {
		p := make(perm.P, n)
		for j, v := range table[r : r+n] {
			p[j] = int(v)
		}
		out = append(out, p)
	}
	return out
}

// TestPermInputsLexOrder: the input table's rows are the n!
// permutations in rank order.
func TestPermInputsLexOrder(t *testing.T) {
	inputs := permInputs(4)
	if len(inputs) != 24 {
		t.Fatalf("%d inputs", len(inputs))
	}
	if !sort.SliceIsSorted(inputs, func(i, j int) bool {
		return inputs[i].Rank() < inputs[j].Rank()
	}) {
		t.Error("inputs not in rank order")
	}
	// Rank r input must unrank back to itself.
	for r, p := range inputs {
		if int64(r) != p.Rank() {
			t.Fatalf("input %d has rank %d", r, p.Rank())
		}
	}
}

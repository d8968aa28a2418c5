package core

import (
	"math/big"
	"testing"
	"time"

	"sortnets/internal/bitvec"
	"sortnets/internal/comb"
	"sortnets/internal/gen"
	"sortnets/internal/perm"
)

func TestSorterBinaryTestsSize(t *testing.T) {
	// Theorem 2.2(i): |T| = 2ⁿ − n − 1.
	for n := 1; n <= 16; n++ {
		got := int64(bitvec.Count(SorterBinaryTests(n)))
		want := comb.SorterBinaryTestSetSize(n)
		if want.Cmp(big.NewInt(got)) != 0 {
			t.Errorf("n=%d: %d tests, want %s", n, got, want)
		}
	}
}

func TestSorterBinaryTestsContents(t *testing.T) {
	it := SorterBinaryTests(3)
	var got []string
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, v.String())
	}
	// The four non-sorted strings of Fig. 2, in word order.
	want := map[string]bool{"100": true, "010": true, "110": true, "101": true}
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected test %s", s)
		}
	}
}

func TestSelectorBinaryTestsSize(t *testing.T) {
	// Theorem 2.4(i): |T⁺ₖ| = Σᵢ₌₀..k C(n,i) − k − 1.
	for n := 2; n <= 14; n++ {
		for k := 1; k <= n; k++ {
			got := int64(bitvec.Count(SelectorBinaryTests(n, k)))
			want := comb.SelectorBinaryTestSetSize(n, k)
			if want.Cmp(big.NewInt(got)) != 0 {
				t.Errorf("n=%d k=%d: %d tests, want %s", n, k, got, want)
			}
		}
	}
}

func TestSelectorBinaryTestsContents(t *testing.T) {
	it := SelectorBinaryTests(6, 2)
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		if v.Zeros() > 2 {
			t.Errorf("%s has %d zeros, want ≤ 2", v, v.Zeros())
		}
		if v.IsSorted() {
			t.Errorf("%s is sorted", v)
		}
	}
}

func TestSelectorTestsNest(t *testing.T) {
	// T⁺₁ ⊆ T⁺₂ ⊆ … ⊆ T⁺ₙ = sorter test set.
	n := 8
	prev := map[bitvec.Vec]bool{}
	for k := 1; k <= n; k++ {
		cur := map[bitvec.Vec]bool{}
		it := SelectorBinaryTests(n, k)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			cur[v] = true
		}
		for v := range prev {
			if !cur[v] {
				t.Fatalf("k=%d: lost test %s from k−1", k, v)
			}
		}
		prev = cur
	}
	full := map[bitvec.Vec]bool{}
	it := SorterBinaryTests(n)
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		full[v] = true
	}
	if len(prev) != len(full) {
		t.Errorf("T⁺ₙ has %d tests, sorter set has %d", len(prev), len(full))
	}
}

func TestMergerBinaryTestsSizeAndContents(t *testing.T) {
	for n := 2; n <= 16; n += 2 {
		h := n / 2
		count := 0
		it := MergerBinaryTests(n)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			count++
			if !v.Slice(0, h).IsSorted() || !v.Slice(h, n).IsSorted() {
				t.Errorf("n=%d: %s has an unsorted half", n, v)
			}
			if v.IsSorted() {
				t.Errorf("n=%d: %s is sorted", n, v)
			}
		}
		if want := h * h; count != want {
			t.Errorf("n=%d: %d tests, want n²/4=%d", n, count, want)
		}
	}
}

func TestMergerBinaryTestsPanicOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for odd n")
		}
	}()
	MergerBinaryTests(5)
}

func TestSorterPermTestsSize(t *testing.T) {
	for n := 1; n <= 12; n++ {
		got := int64(len(SorterPermTests(n)))
		want := comb.SorterPermTestSetSize(n)
		if want.Cmp(big.NewInt(got)) != 0 {
			t.Errorf("n=%d: %d perms, want %s", n, got, want)
		}
	}
}

func TestSelectorPermTestsSize(t *testing.T) {
	for n := 2; n <= 11; n++ {
		for k := 1; k <= n; k++ {
			got := int64(len(SelectorPermTests(n, k)))
			want := comb.SelectorPermTestSetSize(n, k)
			if want.Cmp(big.NewInt(got)) != 0 {
				t.Errorf("n=%d k=%d: %d perms, want %s", n, k, got, want)
			}
		}
	}
}

// TestSelectorPermTestsWide: a small selector family on a wide network
// costs its own chains, not the 2ⁿ strings of the whole decomposition:
// the (2,33)-selector's C(33,2) − 1 = 527 permutations come back in
// well under a second (about 5 ms on a 2-core Xeon).
func TestSelectorPermTestsWide(t *testing.T) {
	start := time.Now()
	ps := SelectorPermTests(33, 2)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("SelectorPermTests(33, 2) took %v", elapsed)
	}
	if len(ps) != 527 {
		t.Fatalf("%d permutations, want C(33,2) − 1 = 527", len(ps))
	}
	for _, p := range ps {
		if len(p) != 33 || p.IsSorted() {
			t.Fatalf("permutation %v is not an unsorted permutation of 33", p)
		}
	}
}

func TestMergerPermTestsSize(t *testing.T) {
	for n := 2; n <= 20; n += 2 {
		if got := len(MergerPermTests(n)); got != n/2 {
			t.Errorf("n=%d: %d perms, want n/2", n, got)
		}
	}
}

func TestPermTestSetsExcludeIdentity(t *testing.T) {
	for _, p := range SorterPermTests(8) {
		if p.IsSorted() {
			t.Error("sorter perm test set contains identity")
		}
	}
	for _, p := range SelectorPermTests(8, 3) {
		if p.IsSorted() {
			t.Error("selector perm test set contains identity")
		}
	}
}

func TestTrueSortersPassAllSorterTests(t *testing.T) {
	// Sufficiency direction on known-good networks: a real sorter
	// passes the whole minimal test set (binary and permutation).
	for n := 2; n <= 10; n++ {
		w := gen.Sorter(n)
		it := SorterBinaryTests(n)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if !w.ApplyVec(v).IsSorted() {
				t.Fatalf("n=%d: sorter fails test %s", n, v)
			}
		}
		for _, p := range SorterPermTests(n) {
			if got, err := perm.FromValues(w.Apply(p)); err != nil || !got.IsSorted() {
				t.Fatalf("n=%d: sorter fails perm test %s", n, p)
			}
		}
	}
}

func TestTrueMergersPassAllMergerTests(t *testing.T) {
	for n := 2; n <= 14; n += 2 {
		w := gen.HalfMerger(n)
		it := MergerBinaryTests(n)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if !w.ApplyVec(v).IsSorted() {
				t.Fatalf("n=%d: merger fails test %s", n, v)
			}
		}
		for _, p := range MergerPermTests(n) {
			if got, err := perm.FromValues(w.Apply(p)); err != nil || !got.IsSorted() {
				t.Fatalf("n=%d: merger fails τ test %s -> %v", n, p, w.Apply(p))
			}
		}
	}
}

func TestTrueSelectorsPassAllSelectorTests(t *testing.T) {
	for n := 2; n <= 9; n++ {
		for k := 1; k < n; k++ {
			w := gen.Selection(n, k)
			it := SelectorBinaryTests(n, k)
			for {
				v, ok := it.Next()
				if !ok {
					break
				}
				if !SelectsBinary(w, k, v) {
					t.Fatalf("n=%d k=%d: selector fails test %s", n, k, v)
				}
			}
		}
	}
}

func TestSelectorPanicsOnBadK(t *testing.T) {
	for _, f := range []func(){
		func() { SelectorBinaryTests(5, 0) },
		func() { SelectorBinaryTests(5, 6) },
		func() { SelectorPermTests(5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

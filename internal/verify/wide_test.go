package verify

import (
	"context"
	"math/big"
	"testing"

	"sortnets/internal/comb"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

// wideVerdict certifies p on w through VerdictWideProgramCtx on one
// worker.
func wideVerdict(t *testing.T, w *network.Network, p Property) WideResult {
	t.Helper()
	r, err := VerdictWideProgramCtx(context.Background(), eval.Compile(w), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWideTestSetSizesMatchFormulas(t *testing.T) {
	for _, n := range []int{64, 100, 128} {
		if n%2 == 0 {
			got := int64(core.CountWide(core.MergerWideTests(n)))
			want := comb.MergerBinaryTestSetSize(n)
			if want.Cmp(big.NewInt(got)) != 0 {
				t.Errorf("merger n=%d: %d tests, want %s", n, got, want)
			}
		}
		for k := 1; k <= 3; k++ {
			got := int64(core.CountWide(core.SelectorWideTests(n, k)))
			want := comb.SelectorBinaryTestSetSize(n, k)
			if want.Cmp(big.NewInt(got)) != 0 {
				t.Errorf("selector n=%d k=%d: %d tests, want %s", n, k, got, want)
			}
		}
	}
}

func TestWideTestSetsAgreeWithNarrowOnes(t *testing.T) {
	// At n ≤ 64 the wide iterators must produce exactly the narrow
	// test sets (as strings).
	n := 12
	narrow := map[string]bool{}
	it := core.MergerBinaryTests(n)
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		narrow[v.String()] = true
	}
	wit := core.MergerWideTests(n)
	count := 0
	for {
		v, ok := wit.Next()
		if !ok {
			break
		}
		count++
		if !narrow[v.String()] {
			t.Errorf("wide merger test %s not in narrow set", v)
		}
	}
	if count != len(narrow) {
		t.Errorf("wide %d vs narrow %d", count, len(narrow))
	}

	narrowSel := map[string]bool{}
	sit := core.SelectorBinaryTests(n, 2)
	for {
		v, ok := sit.Next()
		if !ok {
			break
		}
		narrowSel[v.String()] = true
	}
	wsit := core.SelectorWideTests(n, 2)
	count = 0
	for {
		v, ok := wsit.Next()
		if !ok {
			break
		}
		count++
		if !narrowSel[v.String()] {
			t.Errorf("wide selector test %s not in narrow set", v)
		}
	}
	if count != len(narrowSel) {
		t.Errorf("wide selector %d vs narrow %d", count, len(narrowSel))
	}
}

func TestWideMergerAcceptsBatcher(t *testing.T) {
	for _, n := range []int{64, 96, 128} {
		w := gen.HalfMerger(n)
		r := wideVerdict(t, w, Merger{N: n})
		if !r.Holds {
			t.Errorf("n=%d: Batcher merger rejected: %s", n, r)
		}
		if r.TestsRun != n*n/4 {
			t.Errorf("n=%d: ran %d tests, want %d", n, r.TestsRun, n*n/4)
		}
	}
}

func TestWideMergerCatchesMutants(t *testing.T) {
	const n = 96
	merger := gen.HalfMerger(n)
	// Delete every 7th comparator; all resulting breakages must be
	// caught by the 2304-test program.
	for i := 0; i < merger.Size(); i += 7 {
		mutant := network.New(n)
		for j, c := range merger.Comps {
			if j != i {
				mutant.AddPair(c.A, c.B)
			}
		}
		r := wideVerdict(t, mutant, Merger{N: n})
		if r.Holds {
			// A redundant comparator is possible in principle; verify
			// redundancy by checking a full merge pattern sweep.
			ok := true
			it := core.MergerWideTests(n)
			for {
				v, okNext := it.Next()
				if !okNext {
					break
				}
				if !mutant.ApplyWide(v).IsSorted() {
					ok = false
					break
				}
			}
			if !ok {
				t.Fatalf("mutant %d broken but verdict holds", i)
			}
		}
	}
}

func TestWideSelector(t *testing.T) {
	const n, k = 96, 2
	good := gen.Selection(n, k)
	r := wideVerdict(t, good, Selector{N: n, K: k})
	if !r.Holds {
		t.Fatalf("true selector rejected: %s", r)
	}
	// k−1 passes are not enough.
	bad := gen.Selection(n, k-1)
	r = wideVerdict(t, bad, Selector{N: n, K: k})
	if r.Holds {
		t.Fatal("under-provisioned selector accepted")
	}
	if r.Output.N() != n {
		t.Error("counterexample output missing")
	}
}

func TestWideSelectorSorterPasses(t *testing.T) {
	const n = 80
	w := gen.OddEvenMergeSort(n)
	if r := wideVerdict(t, w, Selector{N: n, K: 2}); !r.Holds {
		t.Errorf("sorter rejected as selector: %s", r)
	}
	if r := wideVerdict(t, w, Merger{N: n}); !r.Holds {
		t.Errorf("sorter rejected as merger: %s", r)
	}
}

func TestWideResultString(t *testing.T) {
	r := WideResult{Holds: true, TestsRun: 5}
	if r.String() != "holds (5 tests)" {
		t.Errorf("got %q", r.String())
	}
	bad := wideVerdict(t, network.New(128), Merger{N: 128})
	if bad.Holds {
		t.Fatal("empty network accepted")
	}
	if len(bad.String()) > 140 {
		t.Errorf("failure string should truncate wide vectors: %q", bad.String())
	}
}

// TestWideNeedsPolynomialFamily: only the merger and selector
// properties have polynomial test sets, and the program must match
// the property's width; anything else is a programmer error.
func TestWideNeedsPolynomialFamily(t *testing.T) {
	for name, p := range map[string]Property{
		"sorter":         Sorter{N: 96},
		"line mismatch":  Merger{N: 64},
		"custom on 96":   customProp{n: 96},
		"selector on 80": Selector{N: 80, K: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			VerdictWideProgramCtx(context.Background(), eval.Compile(gen.HalfMerger(96)), p, 1)
		}()
	}
}

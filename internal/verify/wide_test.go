package verify

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"testing"

	"sortnets/internal/comb"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/widevec"
)

// countRows drains a row source of n-line vectors.
func countRows(n int, src eval.RowSource) int {
	row := make([]uint64, (n+63)/64)
	c := 0
	for src.FillRows(row, 1) == 1 {
		c++
	}
	return c
}

// wideTests is p's polynomial wide test family.
func wideTests(p Property) eval.RowSource {
	if m, ok := p.(Merger); ok {
		return core.MergerBinaryTests(m.N)
	}
	s := p.(Selector)
	return core.SelectorBinaryTests(s.N, s.K)
}

// referenceRun is the scalar reference for wide verdicts: each row
// read into 0/1 ints and routed through the network's integer
// evaluator, which shares no code with the block engine, then judged
// on the integers — sorted output for the merger (every family row is
// in contract); for the (k,n)-selector, output line i < k carries 1
// exactly when i is at least the input's zero count — stopping at the
// first failure in stream order.
func referenceRun(w *network.Network, p Property, tests eval.RowSource) WideResult {
	row := make([]uint64, (w.N+63)/64)
	v := make([]int, w.N)
	i := 0
	for ; tests.FillRows(row, 1) == 1; i++ {
		zeros := 0
		for line := range v {
			v[line] = int(row[line>>6] >> uint(line&63) & 1)
			zeros += 1 - v[line]
		}
		w.ApplyInPlace(v)
		ok := true
		if s, isSelector := p.(Selector); isSelector {
			for line := 0; line < s.K; line++ {
				ok = ok && (v[line] == 1) == (line >= zeros)
			}
		} else {
			ok = sort.IntsAreSorted(v)
		}
		if !ok {
			out := make([]uint64, len(row))
			for line, bit := range v {
				out[line>>6] |= uint64(bit) << uint(line&63)
			}
			return WideResult{TestsRun: i + 1, Counterexample: widevec.FromWords(w.N, row), Output: widevec.FromWords(w.N, out)}
		}
	}
	return WideResult{Holds: true, TestsRun: i}
}

// oneRow streams a single row.
type oneRow []uint64

func (r *oneRow) FillRows(dst []uint64, lim int) int {
	if *r == nil || lim == 0 {
		return 0
	}
	copy(dst, *r)
	*r = nil
	return 1
}

// TestWideVerdictsMatchReference: merger and (k,n)-selector verdicts,
// k = 1..3, on Batcher merging and selection networks and their
// single-comparator-deletion mutants, equal the scalar reference at
// one worker — Holds, TestsRun, counterexample and output — and agree
// on Holds at workers 0 and 2, with every counterexample failing
// under the reference. (Mergers need even n: 66 stands in for 65.)
func TestWideVerdictsMatchReference(t *testing.T) {
	type wideCase struct {
		w *network.Network
		p Property
	}
	var cases []wideCase
	for _, n := range []int{66, 96, 128, 256} {
		cases = append(cases, wideCase{gen.HalfMerger(n), Merger{N: n}})
	}
	for _, n := range []int{65, 96, 128, 256} {
		for k := 1; k <= 3; k++ {
			cases = append(cases, wideCase{gen.Selection(n, k), Selector{N: n, K: k}})
		}
	}
	for _, c := range cases {
		size := c.w.Size()
		for _, drop := range []int{-1, 0, size / 3, 2 * size / 3, size - 1} {
			w := network.New(c.w.N)
			for j, cmp := range c.w.Comps {
				if j != drop {
					w.AddPair(cmp.A, cmp.B)
				}
			}
			desc := fmt.Sprintf("%s without comparator %d", c.p.Name(), drop)
			want := referenceRun(w, c.p, wideTests(c.p))
			prog := eval.Compile(w)
			for _, workers := range []int{1, 0, 2} {
				got, err := VerdictWideProgramCtx(context.Background(), prog, c.p, workers)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 && (got.Holds != want.Holds || got.TestsRun != want.TestsRun ||
					!got.Counterexample.Equal(want.Counterexample) || !got.Output.Equal(want.Output)) {
					t.Fatalf("%s: verdict %s, reference %s", desc, got, want)
				}
				if got.Holds != want.Holds {
					t.Fatalf("%s, %d workers: holds %v, reference %v", desc, workers, got.Holds, want.Holds)
				}
				if got.Holds {
					continue
				}
				ce := oneRow(make([]uint64, (w.N+63)/64))
				for line := 0; line < w.N; line++ {
					ce[line>>6] |= uint64(got.Counterexample.Bit(line)) << uint(line&63)
				}
				if r := referenceRun(w, c.p, &ce); r.Holds || !r.Output.Equal(got.Output) {
					t.Fatalf("%s, %d workers: counterexample %s passes the reference", desc, workers, got)
				}
			}
		}
	}
}

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
			got := int64(countRows(n, core.MergerBinaryTests(n)))
			want := comb.MergerBinaryTestSetSize(n)
			if want.Cmp(big.NewInt(got)) != 0 {
				t.Errorf("merger n=%d: %d tests, want %s", n, got, want)
			}
		}
		for k := 1; k <= 3; k++ {
			got := int64(countRows(n, core.SelectorBinaryTests(n, k)))
			want := comb.SelectorBinaryTestSetSize(n, k)
			if want.Cmp(big.NewInt(got)) != 0 {
				t.Errorf("selector n=%d k=%d: %d tests, want %s", n, k, got, want)
			}
		}
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
			// redundancy by a full merge pattern sweep on the
			// integer path.
			if !referenceRun(mutant, Merger{N: n}, core.MergerBinaryTests(n)).Holds {
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

package faults

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sortnets/internal/bitset"
	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/search"
)

func sorterMatrix(t *testing.T, n int, mode DetectMode) *Matrix {
	t.Helper()
	w := gen.Sorter(n)
	return DetectionMatrix(w, Enumerate(w),
		func() bitvec.Iterator { return core.SorterBinaryTests(n) }, mode)
}

// TestDetectionMatrixAgreesWithMeasure: the matrix's aggregate report
// must match the early-exit Measure sweep fault for fault.
func TestDetectionMatrixAgreesWithMeasure(t *testing.T) {
	for _, mode := range []DetectMode{ByProperty, ByGolden} {
		w := gen.Sorter(5)
		fs := Enumerate(w)
		tests := func() bitvec.Iterator { return core.SorterBinaryTests(5) }
		m := DetectionMatrix(w, fs, tests, mode)
		rep := Measure(w, fs, tests, mode)
		if got := m.Report(); got != rep {
			t.Errorf("%s: matrix report %+v, Measure %+v", mode, got, rep)
		}
	}
}

// TestDetectionMatrixCellsMatchDetectors spot-checks individual cells
// against the one-shot Detects path.
func TestDetectionMatrixCellsMatchDetectors(t *testing.T) {
	w := gen.Sorter(4)
	fs := Enumerate(w)
	m := DetectionMatrix(w, fs, func() bitvec.Iterator { return core.SorterBinaryTests(4) }, ByProperty)
	for ti, tau := range m.Tests {
		for fi, f := range fs {
			want := m.Detectable.Contains(fi) && Detects(w, f, tau, ByProperty)
			if got := m.Sigs[ti].Contains(fi); got != want {
				t.Fatalf("cell (test %s, fault %s): matrix %v, detector %v",
					tau, f.Describe(), got, want)
			}
		}
	}
}

// scalarDetects is the reference detection verdict: the faulty
// circuit evaluated one vector at a time by the scalar Program.Apply,
// judged against the property (sorted output) or the golden output.
func scalarDetects(w *network.Network, faulty *eval.Program, tau bitvec.Vec, mode DetectMode) bool {
	out := faulty.Apply(tau)
	if mode == ByGolden {
		return out != w.ApplyVec(tau)
	}
	return !out.IsSorted()
}

// scalarCase is one circuit, test stream and detection modes that
// TestMatrixAndMeasureMatchScalarEval pins to the scalar reference.
type scalarCase struct {
	name  string
	w     *network.Network
	tests func() bitvec.Iterator
	modes []DetectMode
}

// scalarCases are the circuits and test streams of
// TestMatrixAndMeasureMatchScalarEval. Both fault-pass routes are
// covered: the sorter test set is a span of the whole universe, judged
// in one pass whose sorted-word holes give detectability but no test;
// the (2,n)-selector and merger sets, which sorter requests never use
// and which the daemon judges by golden reference, and a slice of
// vectors, sorted ones and repeats included, are not spans, so the
// universe pass runs before the test pass.
func scalarCases() []scalarCase {
	var cases []scalarCase
	both := []DetectMode{ByProperty, ByGolden}
	golden := []DetectMode{ByGolden}
	for _, c := range []struct {
		n, comps int // lines, and comparators of the random circuit
		modes    []DetectMode
	}{
		// n = 3..5: the universe is narrower than a word; n = 6 fills
		// exactly one word of a block.
		{3, 4, both}, {4, 6, both}, {5, 9, both}, {6, 12, both},
		{8, 20, both},
		{10, 30, both},
		{12, 40, []DetectMode{ByProperty}},
	} {
		n := c.n
		tests := func() bitvec.Iterator { return core.SorterBinaryTests(n) }
		random := network.Random(n, c.comps, rand.New(rand.NewSource(int64(n))))
		cases = append(cases,
			scalarCase{fmt.Sprintf("n=%d sorter", n), gen.Sorter(n), tests, c.modes},
			scalarCase{fmt.Sprintf("n=%d random", n), random, tests, c.modes})
	}
	selector := func() bitvec.Iterator { return core.SelectorBinaryTests(9, 2) }
	merger := func() bitvec.Iterator { return core.MergerBinaryTests(10) }
	rng := rand.New(rand.NewSource(9))
	vecs := make([]bitvec.Vec, 300)
	for i := range vecs {
		vecs[i] = bitvec.Vec{N: 9, Bits: uint64(rng.Intn(bitvec.Universe(9)))}
	}
	vecs[7], vecs[8], vecs[260] = bitvec.AllZeros(9), bitvec.SortedWithOnes(9, 4), vecs[3]
	slice := func() bitvec.Iterator { return bitvec.Slice(vecs) }
	return append(cases,
		scalarCase{"(2,9)-selector", gen.Selection(9, 2), selector, golden},
		scalarCase{"(2,9)-selector random", network.Random(9, 24, rand.New(rand.NewSource(92))), selector, golden},
		scalarCase{"10-merger", gen.HalfMerger(10), merger, golden},
		scalarCase{"10-merger random", network.Random(10, 24, rand.New(rand.NewSource(10))), merger, golden},
		scalarCase{"slice sorter", gen.Sorter(9), slice, both},
		scalarCase{"slice random", network.Random(9, 24, rand.New(rand.NewSource(19))), slice, both},
	)
}

// TestMatrixAndMeasureMatchScalarEval: every Matrix cell and the
// Measure report must equal the scalar per-vector reference, in the
// given detection modes. At n ≤ 7 the universe is one block narrower
// than 256 lanes; at n = 8 the 247 minimal sorter tests fill one
// ragged block; at n = 10 and 12 the 2ⁿ universes span 4 and 16 full
// 256-lane blocks and the 1013- and 4083-vector test streams several
// blocks ending in a ragged one, so the passes cross block boundaries
// and the matrix rows of the one-pass route cross the holes. The
// exact minset picks, solved from the matrix's kept per-fault rows,
// must equal the picks solved from the per-fault families re-scanned
// out of the signatures.
func TestMatrixAndMeasureMatchScalarEval(t *testing.T) {
	for _, c := range scalarCases() {
		w, tests := c.w, c.tests
		universe := bitvec.Collect(bitvec.All(w.N))
		stream := bitvec.Collect(tests())
		fs := Enumerate(w)
		for _, mode := range c.modes {
			m := DetectionMatrix(w, fs, tests, mode)
			if !slices.Equal(m.Tests, stream) {
				t.Fatalf("%s: matrix tests %v, stream %v", c.name, m.Tests, stream)
			}
			want := Report{Faults: len(fs)}
			for fi, f := range fs {
				faulty := Compile(w, f)
				detectable := slices.ContainsFunc(universe, func(tau bitvec.Vec) bool {
					return scalarDetects(w, faulty, tau, mode)
				})
				if detectable {
					want.Detectable++
				}
				detected := false
				for ti, tau := range m.Tests {
					cell := detectable && scalarDetects(w, faulty, tau, mode)
					detected = detected || cell
					if got := m.Sigs[ti].Contains(fi); got != cell {
						t.Fatalf("%s %s cell (test %d %s, fault %s): matrix %v, scalar %v",
							c.name, mode, ti, tau, f.Describe(), got, cell)
					}
				}
				if detected {
					want.Detected++
				}
			}
			if got := Measure(w, fs, tests, mode); got != want {
				t.Errorf("%s %s: Measure %+v, scalar %+v", c.name, mode, got, want)
			}
			if got := m.Report(); got != want {
				t.Errorf("%s %s: matrix report %+v, scalar %+v", c.name, mode, got, want)
			}
			checkExactPicks(t, fmt.Sprintf("%s %s", c.name, mode), m)
		}
	}
}

// exactPicksBudget caps each exact solve of checkExactPicks, so the
// larger matrices may end unsolved: then both sides must report that.
const exactPicksBudget = 200_000

// checkExactPicks pins ExactMinimalDetectingSetCtx, which hands the
// matrix's kept per-fault rows to the solver, to a reference that
// rebuilds each detected fault's family by scanning every signature.
func checkExactPicks(t *testing.T, desc string, m *Matrix) {
	t.Helper()
	ctx := context.Background()
	var fams []*bitset.Set
	m.Detected().ForEach(func(f int) bool {
		exposing := bitset.New(len(m.Tests))
		for ti, sig := range m.Sigs {
			if sig.Contains(f) {
				exposing.Add(ti)
			}
		}
		fams = append(fams, exposing)
		return true
	})
	want := []int{}
	wantExact := true
	if len(fams) > 0 {
		res, err := search.MinHittingSetBitsCtx(ctx, len(m.Tests), fams, exactPicksBudget, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, wantExact = nil, res.Exact
		if res.Exact {
			res.Elements.ForEach(func(ti int) bool {
				want = append(want, ti)
				return true
			})
		}
	}
	got, exact, err := m.ExactMinimalDetectingSetCtx(ctx, exactPicksBudget, 1)
	if err != nil {
		t.Fatal(err)
	}
	if exact != wantExact || !slices.Equal(got, want) {
		t.Fatalf("%s: exact picks %v (exact %v), re-scan reference %v (exact %v)", desc, got, exact, want, wantExact)
	}
}

// TestMinimalDetectingSet: the greedy selection must still detect
// every detected fault, be no larger than the full stream, and be
// deterministic run-to-run.
func TestMinimalDetectingSet(t *testing.T) {
	m := sorterMatrix(t, 5, ByProperty)
	picks := m.MinimalDetectingSet()
	if len(picks) == 0 || len(picks) > len(m.Tests) {
		t.Fatalf("implausible selection size %d", len(picks))
	}
	covered := m.Detected()
	for _, ti := range picks {
		covered.DiffWith(m.Sigs[ti])
	}
	if !covered.Empty() {
		t.Errorf("selection misses faults %s", covered)
	}
	again := sorterMatrix(t, 5, ByProperty).MinimalDetectingSet()
	if len(again) != len(picks) {
		t.Fatalf("nondeterministic selection size: %d vs %d", len(picks), len(again))
	}
	for i := range picks {
		if picks[i] != again[i] {
			t.Fatalf("nondeterministic selection: %v vs %v", picks, again)
		}
	}
	// Ascending order contract.
	for i := 1; i < len(picks); i++ {
		if picks[i-1] >= picks[i] {
			t.Fatalf("selection not ascending: %v", picks)
		}
	}
}

// TestMatrixString covers the summary formatting.
func TestMatrixString(t *testing.T) {
	if sorterMatrix(t, 4, ByGolden).String() == "" {
		t.Error("empty string")
	}
}

// Allocations of one exact minset computation on prefixedSorter8
// (go1.24): a fixed part — the fault set, the collected tests, the two
// slabs, the signatures' transpose and the exact solve — and at most
// minsetChunkAllocs per chunk of the fault pass (the chunk's index
// list, its universe iterator and its test map, and a goroutine's
// start when there are several), measured by forcing 1, 2, 4 and 8
// chunks under GOMAXPROCS of the same count (69, 77, 86 and 101
// allocations).
const (
	minsetFixedAllocs = 63
	minsetChunkAllocs = 6
)

// TestMinsetAllocs guards the word-level minset path: the detection
// matrix and its exact minimum detecting set cost a fixed handful of
// allocations plus a few per fault chunk, none per test, fault or
// family member. The pass runs on the chunks its own sizing rule
// (chunkCount) gives, counted inside the measurement because
// testing.AllocsPerRun sets GOMAXPROCS to 1, so the bound is the
// measured count plus 2 per chunk.
func TestMinsetAllocs(t *testing.T) {
	w := prefixedSorter8()
	golden, fs, ctx := eval.Compile(w), Enumerate(w), context.Background()
	if !golden.SortsAll() {
		t.Fatal("the prefixed sorter does not sort")
	}
	chunks := 0
	allocs := testing.AllocsPerRun(50, func() {
		chunks = chunkCount(w, len(fs))
		m, err := DetectionMatrixCtx(ctx, w, golden, fs, sorterTests8, ByProperty)
		if err != nil {
			t.Fatal(err)
		}
		if _, exact, err := m.ExactMinimalDetectingSetCtx(ctx, minsetBenchBudget, 1); err != nil || !exact {
			t.Fatalf("exact solve: exact=%v, err=%v", exact, err)
		}
	})
	bound := minsetFixedAllocs + (minsetChunkAllocs+2)*chunks
	t.Logf("minset on %d chunks: %.0f allocations (bound %d)", chunks, allocs, bound)
	if allocs > float64(bound) {
		t.Fatalf("matrix + exact minset allocate %.0f times on %d chunks, bound %d: the word-level path has regressed", allocs, chunks, bound)
	}
}

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

// TestMatrixAndMeasureMatchScalarEval: every Matrix cell and the
// Measure report must equal the scalar per-vector reference, in the
// given detection modes. At n = 8 the 247 minimal sorter tests fill
// one ragged block; at n = 10 and 12 the 2ⁿ universes span 4 and 16
// full 256-lane blocks and the 1013- and 4083-vector test streams
// several blocks ending in a ragged one, so the shared universe pass,
// RunMany and the multi-program Sweep all cross block boundaries. The
// exact minset picks, solved from the matrix's kept per-fault rows,
// must equal the picks solved from the per-fault families re-scanned
// out of the signatures.
func TestMatrixAndMeasureMatchScalarEval(t *testing.T) {
	cases := []struct {
		n     int
		comps int // comparators of the random circuit
		modes []DetectMode
	}{
		{8, 20, []DetectMode{ByProperty, ByGolden}},
		{10, 30, []DetectMode{ByProperty, ByGolden}},
		{12, 40, []DetectMode{ByProperty}},
	}
	for _, c := range cases {
		n := c.n
		nets := map[string]*network.Network{
			"sorter": gen.Sorter(n),
			"random": network.Random(n, c.comps, rand.New(rand.NewSource(int64(n)))),
		}
		tests := func() bitvec.Iterator { return core.SorterBinaryTests(n) }
		universe := bitvec.Collect(bitvec.All(n))
		for name, w := range nets {
			fs := Enumerate(w)
			for _, mode := range c.modes {
				m := DetectionMatrix(w, fs, tests, mode)
				if want := bitvec.Universe(n) - (n + 1); len(m.Tests) != want {
					t.Fatalf("n=%d %s: %d tests, want %d", n, name, len(m.Tests), want)
				}
				want := Report{Faults: len(fs)}
				for fi, f := range fs {
					faulty := Compile(w, f)
					detectable := false
					for _, tau := range universe {
						if scalarDetects(w, faulty, tau, mode) {
							detectable = true
							break
						}
					}
					if detectable {
						want.Detectable++
					}
					detected := false
					for ti, tau := range m.Tests {
						cell := detectable && scalarDetects(w, faulty, tau, mode)
						detected = detected || cell
						if got := m.Sigs[ti].Contains(fi); got != cell {
							t.Fatalf("n=%d %s %s cell (test %d %s, fault %s): matrix %v, scalar %v",
								n, name, mode, ti, tau, f.Describe(), got, cell)
						}
					}
					if detected {
						want.Detected++
					}
				}
				if got := Measure(w, fs, tests, mode); got != want {
					t.Errorf("n=%d %s %s: Measure %+v, scalar %+v", n, name, mode, got, want)
				}
				if got := m.Report(); got != want {
					t.Errorf("n=%d %s %s: matrix report %+v, scalar %+v", n, name, mode, got, want)
				}
				checkExactPicks(t, fmt.Sprintf("n=%d %s %s", n, name, mode), m)
			}
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

package faults

import (
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/gen"
	"sortnets/internal/network"
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
// circuit evaluated one vector at a time by Fault.Eval, judged against
// the property (sorted output) or the golden output.
func scalarDetects(w *network.Network, f Fault, tau bitvec.Vec, mode DetectMode) bool {
	out := f.Eval(w, tau)
	if mode == ByGolden {
		return out != w.ApplyVec(tau)
	}
	return !out.IsSorted()
}

// TestMatrixAndMeasureMatchScalarEval: on 8-line circuits the 247
// minimal sorter tests span several words, so Sweep and the golden
// judge see multi-word and ragged blocks; every Matrix cell and the
// Measure report must equal the scalar Fault.Eval reference, in both
// detection modes.
func TestMatrixAndMeasureMatchScalarEval(t *testing.T) {
	const n = 8
	nets := map[string]*network.Network{
		"sorter": gen.Sorter(n),
		"random": network.Random(n, 20, rand.New(rand.NewSource(8))),
	}
	tests := func() bitvec.Iterator { return core.SorterBinaryTests(n) }
	universe := bitvec.Collect(bitvec.All(n))
	for name, w := range nets {
		fs := Enumerate(w)
		for _, mode := range []DetectMode{ByProperty, ByGolden} {
			m := DetectionMatrix(w, fs, tests, mode)
			if len(m.Tests) != 247 {
				t.Fatalf("%s: %d tests, want 247", name, len(m.Tests))
			}
			want := Report{Faults: len(fs)}
			for fi, f := range fs {
				detectable := false
				for _, tau := range universe {
					if scalarDetects(w, f, tau, mode) {
						detectable = true
						break
					}
				}
				if detectable {
					want.Detectable++
				}
				detected := false
				for ti, tau := range m.Tests {
					cell := detectable && scalarDetects(w, f, tau, mode)
					detected = detected || cell
					if got := m.Sigs[ti].Contains(fi); got != cell {
						t.Fatalf("%s %s cell (test %d %s, fault %s): matrix %v, scalar %v",
							name, mode, ti, tau, f.Describe(), got, cell)
					}
				}
				if detected {
					want.Detected++
				}
			}
			if got := Measure(w, fs, tests, mode); got != want {
				t.Errorf("%s %s: Measure %+v, scalar %+v", name, mode, got, want)
			}
			if got := m.Report(); got != want {
				t.Errorf("%s %s: matrix report %+v, scalar %+v", name, mode, got, want)
			}
		}
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

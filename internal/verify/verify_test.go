package verify

import (
	"context"
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/perm"
)

func TestVerdictAcceptsTrueSorters(t *testing.T) {
	for n := 2; n <= 12; n++ {
		r := Verdict(gen.Sorter(n), Sorter{N: n})
		if !r.Holds {
			t.Errorf("n=%d: %s", n, r)
		}
		wantTests := bitvec.Universe(n) - n - 1
		if r.TestsRun != wantTests {
			t.Errorf("n=%d: ran %d tests, want full set %d", n, r.TestsRun, wantTests)
		}
	}
}

func TestVerdictRejectsAlmostSorters(t *testing.T) {
	// The sharpest possible negative: H_σ fails exactly one test, and
	// the verdict must find it and name σ.
	for n := 3; n <= 9; n++ {
		it := core.SorterBinaryTests(n)
		for {
			sigma, ok := it.Next()
			if !ok {
				break
			}
			r := Verdict(core.MustAlmostSorter(sigma), Sorter{N: n})
			if r.Holds {
				t.Fatalf("n=%d: H_%s passed the full test set", n, sigma)
			}
			if r.Counterexample != sigma {
				t.Fatalf("n=%d: counterexample %s, want %s", n, r.Counterexample, sigma)
			}
			if r.Output.IsSorted() {
				t.Fatalf("n=%d: reported output %s is sorted", n, r.Output)
			}
		}
	}
}

func TestVerdictMatchesGroundTruthRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(9)
		w := network.Random(n, rng.Intn(n*n), rng)
		v := Verdict(w, Sorter{N: n})
		g := GroundTruth(w, Sorter{N: n})
		if v.Holds != g.Holds {
			t.Fatalf("verdict %v != ground truth %v for %s", v.Holds, g.Holds, w)
		}
	}
}

func TestSelectorVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(7)
		k := 1 + rng.Intn(n)
		p := Selector{N: n, K: k}
		w := network.Random(n, rng.Intn(n*n), rng)
		if Verdict(w, p).Holds != GroundTruth(w, p).Holds {
			t.Fatalf("selector verdict mismatch: %s k=%d", w, k)
		}
	}
	// Positive fixture.
	if r := Verdict(gen.Selection(8, 3), Selector{N: 8, K: 3}); !r.Holds {
		t.Errorf("true selector rejected: %s", r)
	}
	// A (k,n)-selection network is generally NOT a (k+1,n)-selector.
	if r := Verdict(gen.Selection(8, 3), Selector{N: 8, K: 4}); r.Holds {
		t.Error("(3,8)-selection accepted as (4,8)-selector")
	}
}

func TestMergerVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		n := 2 * (1 + rng.Intn(5))
		p := Merger{N: n}
		w := network.Random(n, rng.Intn(n*n/2+1), rng)
		if Verdict(w, p).Holds != GroundTruth(w, p).Holds {
			t.Fatalf("merger verdict mismatch: %s", w)
		}
	}
	if r := Verdict(gen.HalfMerger(10), Merger{N: 10}); !r.Holds {
		t.Errorf("true merger rejected: %s", r)
	}
	if r := Verdict(network.New(6), Merger{N: 6}); r.Holds {
		t.Error("empty network accepted as merger")
	}
}

func TestMergerTestCountIsQuadratic(t *testing.T) {
	// The whole point of Theorem 2.5: n²/4 tests instead of 2ⁿ.
	n := 12
	r := Verdict(gen.HalfMerger(n), Merger{N: n})
	if r.TestsRun != n*n/4 {
		t.Errorf("merger ran %d tests, want %d", r.TestsRun, n*n/4)
	}
	g := GroundTruth(gen.HalfMerger(n), Merger{N: n})
	if g.TestsRun != bitvec.Universe(n) {
		t.Errorf("ground truth ran %d tests, want 2ⁿ", g.TestsRun)
	}
}

func TestParallelAgreesWithSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		w := network.Random(n, rng.Intn(n*n), rng)
		p := Sorter{N: n}
		seq := Verdict(w, p)
		for _, workers := range []int{1, 2, 4, 0} {
			par, err := VerdictCtx(context.Background(), w, p, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par.Holds != seq.Holds {
				t.Fatalf("workers=%d: parallel %v != sequential %v for %s",
					workers, par.Holds, seq.Holds, w)
			}
			if !par.Holds && !par.Output.IsSorted() == false {
				t.Fatalf("workers=%d: bogus counterexample", workers)
			}
		}
		gt, err := GroundTruthCtx(context.Background(), w, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if gt.Holds != seq.Holds {
			t.Fatalf("parallel ground truth diverges for %s", w)
		}
	}
}

func TestVerdictPermsAgainstGroundTruthPerms(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5) // n! sweep: keep small
		w := network.Random(n, rng.Intn(n*n), rng)
		p := Sorter{N: n}
		v := VerdictPerms(w, p)
		g := GroundTruthPerms(w, p)
		if v.Holds != g.Holds {
			t.Fatalf("perm verdict %v != perm ground truth %v for %s", v.Holds, g.Holds, w)
		}
		// And both must agree with the binary side (zero-one).
		if v.Holds != Verdict(w, p).Holds {
			t.Fatalf("perm and binary verdicts disagree for %s", w)
		}
	}
}

func TestVerdictPermsSelectorAndMerger(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		n := 2 * (1 + rng.Intn(3))
		w := network.Random(n, rng.Intn(n*n), rng)
		pm := Merger{N: n}
		if VerdictPerms(w, pm).Holds != GroundTruth(w, pm).Holds {
			t.Fatalf("merger perm verdict mismatch for %s", w)
		}
		k := 1 + rng.Intn(n)
		ps := Selector{N: n, K: k}
		if VerdictPerms(w, ps).Holds != GroundTruth(w, ps).Holds {
			t.Fatalf("selector perm verdict mismatch for %s k=%d", w, k)
		}
	}
}

func TestPropertyNamesAndLines(t *testing.T) {
	if (Sorter{N: 5}).Name() != "sorter" {
		t.Error("sorter name")
	}
	if (Selector{N: 8, K: 3}).Name() != "(3,8)-selector" {
		t.Error("selector name")
	}
	if (Merger{N: 6}).Name() != "(3,3)-merger" {
		t.Error("merger name")
	}
	if (Sorter{N: 5}).Lines() != 5 || (Merger{N: 6}).Lines() != 6 {
		t.Error("lines")
	}
}

func TestResultStrings(t *testing.T) {
	r := Result{Holds: true, TestsRun: 7}
	if r.String() != "holds (7 tests)" {
		t.Errorf("got %q", r.String())
	}
	r2 := Result{Holds: false, TestsRun: 3,
		Counterexample: bitvec.MustFromString("10"), Output: bitvec.MustFromString("10")}
	if r2.String() == "" || r2.String() == r.String() {
		t.Error("failure string malformed")
	}
}

func TestVerdictPanicsOnLineMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Verdict(network.New(3), Sorter{N: 4})
}

func TestVerdictUnknownPropertyFallsBack(t *testing.T) {
	// A custom property type must route through the per-lane judge.
	p := customProp{n: 3}
	w := network.New(3)
	r := Verdict(w, p)
	if !r.Holds || r.TestsRun != 1 {
		t.Errorf("fallback result %+v", r)
	}
}

type customProp struct{ n int }

func (c customProp) Name() string                          { return "custom" }
func (c customProp) Lines() int                            { return c.n }
func (c customProp) AcceptsBinary(in, out bitvec.Vec) bool { return true }
func (c customProp) AcceptsInts(in, out []int) bool        { return true }
func (c customProp) PermTests() []perm.P                   { return nil }
func (c customProp) ExhaustiveBinary() bitvec.Iterator     { return bitvec.All(c.n) }
func (c customProp) BinaryTests() bitvec.Iterator {
	return bitvec.Slice([]bitvec.Vec{bitvec.AllZeros(c.n)})
}

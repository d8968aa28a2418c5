package search

import (
	"math/bits"
	"math/rand"
	"testing"

	"sortnets/internal/bitset"
)

// --- Satellite: deterministic greedy tie-breaking -----------------------

// TestGreedyDeterministicTieBreak: on equal cover counts the LOWEST
// element index must win, and repeated runs must agree exactly.
func TestGreedyDeterministicTieBreak(t *testing.T) {
	// Elements 1, 3, 5 each cover exactly one (disjoint) set: every
	// pick is a tie; element 0 of each set must win in index order.
	fam := []uint64{0b0000_1010, 0b1010_0000, 0b10_0000_0000}
	want := uint64(1<<1 | 1<<5 | 1<<9)
	for run := 0; run < 20; run++ {
		if got := greedy(fam); got != want {
			t.Fatalf("run %d: greedy picked %b, want %b", run, got, want)
		}
	}
}

func TestGreedyBitsDeterministicTieBreak(t *testing.T) {
	mk := func(idx ...int) *bitset.Set { return bitset.FromIndices(12, idx...) }
	fam := []*bitset.Set{mk(1, 3), mk(5, 7), mk(9, 11)}
	first := greedyBits(12, fam)
	for run := 0; run < 20; run++ {
		if got := greedyBits(12, fam); !got.Equal(first) {
			t.Fatalf("run %d: greedyBits picked %s, then %s", run, first, got)
		}
	}
	for _, e := range []int{1, 5, 9} {
		if !first.Contains(e) {
			t.Errorf("tie should break to lowest index; picked %s", first)
		}
	}
}

// TestMinimumTestSetReproducible: the full pipeline (closure, family,
// solve) must return the identical witness test set run-to-run.
func TestMinimumTestSetReproducible(t *testing.T) {
	first, err := MinimumTestSet(4, 2, SorterAccepts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := MinimumTestSet(4, 2, SorterAccepts, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Tests) != len(first.Tests) {
			t.Fatalf("run %d: %d tests, then %d", run, len(first.Tests), len(again.Tests))
		}
		for i := range again.Tests {
			if again.Tests[i] != first.Tests[i] {
				t.Fatalf("run %d: witness changed: %v vs %v", run, first.Tests, again.Tests)
			}
		}
	}
}

// --- Satellite: superset-pruning edge cases -----------------------------

func TestPruneSupersetsEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		fam  []uint64
		want []uint64 // expected survivor set (order-insensitive)
	}{
		{"empty", nil, nil},
		{"family of one", []uint64{0b0110}, []uint64{0b0110}},
		{"duplicate masks collapse", []uint64{0b011, 0b011, 0b011}, []uint64{0b011}},
		{"equal sets keep one", []uint64{0b101, 0b101}, []uint64{0b101}},
		{"already minimal", []uint64{0b001, 0b010, 0b100}, []uint64{0b001, 0b010, 0b100}},
		{"chain collapses to minimum", []uint64{0b111, 0b011, 0b001}, []uint64{0b001}},
		{"superset of singleton dies", []uint64{0b1, 0b11, 0b101}, []uint64{0b1}},
		{"incomparable pairs survive", []uint64{0b0011, 0b0110, 0b1100}, []uint64{0b0011, 0b0110, 0b1100}},
		{"duplicate superset dies once", []uint64{0b01, 0b11, 0b11}, []uint64{0b01}},
	}
	for _, c := range cases {
		got := pruneSupersets(c.fam)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %b, want %b", c.name, got, c.want)
			continue
		}
		seen := map[uint64]bool{}
		for _, m := range got {
			seen[m] = true
		}
		for _, m := range c.want {
			if !seen[m] {
				t.Errorf("%s: missing survivor %b in %b", c.name, m, got)
			}
		}
	}
}

func TestPruneSupersetSetsEdgeCases(t *testing.T) {
	mk := func(idx ...int) *bitset.Set { return bitset.FromIndices(8, idx...) }
	cases := []struct {
		name string
		fam  []*bitset.Set
		want int
	}{
		{"empty", nil, 0},
		{"family of one", []*bitset.Set{mk(2, 3)}, 1},
		{"duplicates collapse", []*bitset.Set{mk(1, 2), mk(1, 2), mk(1, 2)}, 1},
		{"already minimal", []*bitset.Set{mk(0), mk(1), mk(2)}, 3},
		{"chain collapses", []*bitset.Set{mk(0, 1, 2), mk(0, 1), mk(0)}, 1},
		{"mixed", []*bitset.Set{mk(0, 1), mk(2, 3), mk(0, 1, 2), mk(2, 3)}, 2},
	}
	for _, c := range cases {
		got := pruneSupersetSets(c.fam)
		if len(got) != c.want {
			t.Errorf("%s: %d survivors, want %d", c.name, len(got), c.want)
		}
		// Every original set must contain some survivor (pruning only
		// removes dominated sets).
		for _, orig := range c.fam {
			ok := false
			for _, s := range got {
				if s.SubsetOf(orig) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s: %s lost its dominating subset", c.name, orig)
			}
		}
	}
}

// TestPruneSupersetsAgainstBruteForce cross-checks the bucketed pruning
// against the quadratic definition on random families, and checks
// that the survivors come in canonical (popcount, value) order.
func TestPruneSupersetsAgainstBruteForce(t *testing.T) {
	brute := func(fam []uint64) map[uint64]bool {
		seen := map[uint64]bool{}
		var uniq []uint64
		for _, m := range fam {
			if !seen[m] {
				seen[m] = true
				uniq = append(uniq, m)
			}
		}
		out := map[uint64]bool{}
		for _, a := range uniq {
			dominated := false
			for _, b := range uniq {
				if b != a && b&^a == 0 {
					dominated = true
					break
				}
			}
			if !dominated {
				out[a] = true
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var fam []uint64
		for i := 0; i < rng.Intn(20); i++ {
			if m := rng.Uint64() & 0xFF; m != 0 {
				fam = append(fam, m)
			}
		}
		got := pruneSupersets(append([]uint64(nil), fam...))
		want := brute(fam)
		if len(got) != len(want) {
			t.Fatalf("family %b: got %b, want %v", fam, got, want)
		}
		for i, m := range got {
			if !want[m] {
				t.Fatalf("family %b: spurious survivor %b", fam, m)
			}
			if i > 0 {
				p, q := bits.OnesCount64(got[i-1]), bits.OnesCount64(m)
				if p > q || p == q && got[i-1] >= m {
					t.Fatalf("family %b: survivors %b out of canonical order", fam, got)
				}
			}
		}
	}
}

// --- Acceptance: parallel solver ⇔ sequential solver --------------------

// TestParallelSolverMatchesSequential: the worker-pool branch and bound
// must return the same minimum cardinality as the sequential solver on
// randomized families and on every pinned case from the test suite.
func TestParallelSolverMatchesSequential(t *testing.T) {
	pinned := [][]uint64{
		nil,
		{0b1},
		{0b11, 0b101, 0b110},
		{0b001, 0b010, 0b100},
		{0b111},
		{0b0011, 0b1100},
		{0b0110, 0b0011, 0b1100, 0b1001},
	}
	check := func(fam []uint64) {
		t.Helper()
		seq := bits.OnesCount64(MinHittingSetWorkers(fam, 1))
		for _, workers := range []int{2, 4, 8} {
			par := MinHittingSetWorkers(fam, workers)
			if got := bits.OnesCount64(par); got != seq {
				t.Fatalf("workers=%d: size %d, sequential %d on %b", workers, got, seq, fam)
			}
			for _, m := range fam {
				if m&par == 0 {
					t.Fatalf("workers-built set %b misses %b", par, m)
				}
			}
		}
	}
	for _, fam := range pinned {
		check(fam)
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 120; trial++ {
		var fam []uint64
		for i := 0; i < 1+rng.Intn(14); i++ {
			if m := rng.Uint64() & 0xFFFF; m != 0 {
				fam = append(fam, m)
			}
		}
		check(fam)
	}
}

// TestParallelPipelineMatchesSequential runs the whole search with a
// worker pool and compares the minimum cardinalities (and exactness)
// against the sequential pipeline on every case the suite pins.
func TestParallelPipelineMatchesSequential(t *testing.T) {
	type tc struct{ n, h int }
	for _, c := range []tc{{3, 2}, {4, 2}, {4, 3}, {5, 1}} {
		seq, err := MinimumTestSetOpts(c.n, c.h, SorterAccepts, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := MinimumTestSetOpts(c.n, c.h, SorterAccepts, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Size != seq.Size || par.Behaviors != seq.Behaviors || par.BadSets != seq.BadSets {
			t.Errorf("n=%d h=%d: parallel %+v != sequential %+v", c.n, c.h, par, seq)
		}
	}
	for _, c := range []tc{{3, 2}, {4, 2}, {4, 3}} {
		seq, err := MinimumPermTestSetOpts(c.n, c.h, PermSorterAccepts, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := MinimumPermTestSetOpts(c.n, c.h, PermSorterAccepts, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Size != seq.Size || !par.Exact || par.Behaviors != seq.Behaviors || par.BadSets != seq.BadSets {
			t.Errorf("perm n=%d h=%d: parallel %+v != sequential %+v", c.n, c.h, par, seq)
		}
	}
}

// TestMinHittingSetBitsWorkers mirrors the word-solver cross-check on
// the bitset entry point.
func TestMinHittingSetBitsWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 60; trial++ {
		var fam []*bitset.Set
		for i := 0; i < 1+rng.Intn(10); i++ {
			s := bitset.New(20)
			for b := 0; b < 20; b++ {
				if rng.Intn(4) == 0 {
					s.Add(b)
				}
			}
			if !s.Empty() {
				fam = append(fam, s)
			}
		}
		seq := MinHittingSetBitsWorkers(20, fam, 0, 1)
		par := MinHittingSetBitsWorkers(20, fam, 0, 4)
		if !seq.Exact || !par.Exact || seq.Size != par.Size {
			t.Fatalf("trial %d: sequential %d (exact=%v) vs parallel %d (exact=%v)",
				trial, seq.Size, seq.Exact, par.Size, par.Exact)
		}
		for _, s := range fam {
			if !s.Intersects(par.Elements) {
				t.Fatalf("trial %d: parallel set %s misses %s", trial, par.Elements, s)
			}
		}
	}
}

// TestNodeBudgetExhaustionReportsInexact: a starved budget must come
// back Exact=false, never a wrong "certified" answer.
func TestNodeBudgetExhaustionReportsInexact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// A messy random family large enough that greedy != disjoint bound
	// (so branching is required) is hard to pin; instead assert the
	// contract on many random instances: budget 1 either certifies via
	// bounds or reports inexact.
	for trial := 0; trial < 50; trial++ {
		var fam []*bitset.Set
		for i := 0; i < 8+rng.Intn(8); i++ {
			s := bitset.New(24)
			for b := 0; b < 24; b++ {
				if rng.Intn(5) == 0 {
					s.Add(b)
				}
			}
			if !s.Empty() {
				fam = append(fam, s)
			}
		}
		r := MinHittingSetBits(24, fam, 1)
		full := MinHittingSetBits(24, fam, 0)
		if !full.Exact {
			t.Fatalf("trial %d: unlimited budget not exact", trial)
		}
		if r.Exact && r.Size != full.Size {
			t.Fatalf("trial %d: budget-1 claimed exact %d, true minimum %d", trial, r.Size, full.Size)
		}
		if r.Size < full.Size {
			t.Fatalf("trial %d: budget-1 size %d below true minimum %d", trial, r.Size, full.Size)
		}
	}
}

package search

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"sortnets/internal/bitvec"
	"sortnets/internal/eval"
	"sortnets/internal/network"
)

// Options tunes the search pipeline. The closure BFS and the
// failure-family build always run sequentially; Workers sets only the
// branch and bound's worker count. The zero value means: no closure
// limit, no node cap and a sequential branch and bound, so the
// returned witness test set is reproducible run-to-run. Workers > 1
// spreads the branch and bound over that many workers: the minimum
// cardinality is unchanged (cross-checked in the tests), but the
// identity of an equal-size witness may then vary with scheduling.
type Options struct {
	Limit      int // behaviour-closure cap (0 = unlimited)
	NodeBudget int // node cap: 0 = default (binary: unlimited; perm: 5M), < 0 = unlimited
	Workers    int // branch-and-bound workers: ≤ 1 = sequential, k > 1 = a pool of k
}

// solverWorkers resolves Options.Workers for the branch and bound:
// parallel solving is opt-in (see Options) because the parallel
// incumbent race makes the witness schedule-dependent.
func solverWorkers(w int) int {
	if w <= 0 {
		return 1
	}
	return w
}

// MinHittingSet returns a minimum-cardinality set of elements (bit
// positions) hitting every mask in the family, as a bitmask. The empty
// family is hit by the empty set. Exact and sequential (deterministic
// witness); use MinHittingSetWorkers to spread the branch and bound
// over a pool.
func MinHittingSet(family []uint64) uint64 { return MinHittingSetWorkers(family, 1) }

// MinHittingSetWorkers is MinHittingSet with a worker pool for the
// branch and bound (workers ≤ 0 means GOMAXPROCS). The minimum
// cardinality it returns equals the sequential solver's on every
// input; workers only race toward it.
func MinHittingSetWorkers(family []uint64, workers int) uint64 {
	for _, m := range family {
		if m == 0 {
			panic("search: empty set can never be hit")
		}
	}
	fam := pruneSupersets(slices.Clone(family))
	elems, _, _ := solveHitting(context.Background(), maskRows(fam), 0, workers)
	var out uint64
	for _, e := range elems {
		out |= 1 << uint(e)
	}
	return out
}

// greedy picks, repeatedly, the element covering the most sets, with
// ties broken to the LOWEST element index (the counts live in a
// fixed-order array, not a map), so greedy picks are reproducible
// run-to-run. It is the REFERENCE implementation of the solver's
// tie-break contract: production solving runs through
// coverProblem.greedyComplete (same rule on the compressed
// representation), and the determinism tests pin both.
func greedy(fam []uint64) uint64 {
	uncovered := append([]uint64(nil), fam...)
	var picked uint64
	for len(uncovered) > 0 {
		var counts [64]int
		for _, m := range uncovered {
			for w := m; w != 0; w &= w - 1 {
				counts[bits.TrailingZeros64(w)]++
			}
		}
		bestE, bestC := -1, 0
		for e, c := range counts {
			if c > bestC {
				bestE, bestC = e, c
			}
		}
		picked |= 1 << uint(bestE)
		rest := uncovered[:0]
		for _, m := range uncovered {
			if m&picked == 0 {
				rest = append(rest, m)
			}
		}
		uncovered = rest
	}
	return picked
}

// TestSetResult reports an exact minimum test set computed by
// behaviour-space search.
type TestSetResult struct {
	N          int
	Height     int // comparator height bound (n−1 = unrestricted)
	Behaviors  int // reachable behaviours explored
	BadSets    int // pruned failure family size
	Size       int // minimum test set cardinality
	Tests      []bitvec.Vec
	ForcedSize int  // tests forced by singleton failure sets
	Exact      bool // false only when Options.NodeBudget was exhausted
}

// String renders a one-line summary.
func (r TestSetResult) String() string {
	tag := "exact"
	if !r.Exact {
		tag = "upper bound only"
	}
	return fmt.Sprintf("n=%d height≤%d: %d behaviours, %d failure sets, min test set = %d (%s)",
		r.N, r.Height, r.Behaviors, r.BadSets, r.Size, tag)
}

// MinimumTestSet computes the exact minimum 0/1 test set for a
// property over the class of networks with comparator height ≤ h on n
// lines. limit caps the behaviour closure (0 = unlimited).
func MinimumTestSet(n, h int, accepts Acceptance, limit int) (TestSetResult, error) {
	return MinimumTestSetOpts(n, h, accepts, Options{Limit: limit})
}

// MinimumTestSetOpts is MinimumTestSet with full pipeline options.
func MinimumTestSetOpts(n, h int, accepts Acceptance, opt Options) (TestSetResult, error) {
	return MinimumTestSetCtx(context.Background(), n, h, accepts, opt)
}

// MinimumTestSetCtx is MinimumTestSetOpts under a context: the
// closure BFS, failure-family build and hitting-set branch and bound
// all observe cancellation and a cancelled run returns the context's
// error.
func MinimumTestSetCtx(ctx context.Context, n, h int, accepts Acceptance, opt Options) (TestSetResult, error) {
	if bitvec.Universe(n) > 64 {
		return TestSetResult{}, fmt.Errorf("search: n=%d too large for mask-based search", n)
	}
	st, err := binaryClosureStore(ctx, n, Comparators(n, h), opt.Limit)
	if err != nil {
		return TestSetResult{}, err
	}
	masks, err := st.failureMasks(ctx, n, accepts)
	if err != nil {
		return TestSetResult{}, err
	}
	fam := pruneSupersets(masks)
	elems, exact, err := solveHitting(ctx, maskRows(fam), int64(opt.NodeBudget), solverWorkers(opt.Workers))
	if err != nil {
		return TestSetResult{}, err
	}
	res := TestSetResult{
		N:         n,
		Height:    h,
		Behaviors: st.count,
		BadSets:   len(fam),
		Size:      len(elems),
		Exact:     exact,
	}
	for _, m := range fam {
		if bits.OnesCount64(m) == 1 {
			res.ForcedSize++
		}
	}
	slices.Sort(elems)
	for _, e := range elems {
		res.Tests = append(res.Tests, bitvec.New(n, uint64(e)))
	}
	return res, nil
}

// DeBruijnHolds checks de Bruijn's theorem (quoted in Section 3: a
// height-1 network sorts iff it sorts the reverse permutation) over
// every height-1 network with at most maxComps comparators on n lines,
// by exhaustive enumeration of comparator sequences. It returns an
// error describing the first counterexample, or nil.
func DeBruijnHolds(n, maxComps int) error {
	alphabet := Comparators(n, 1)
	rev := make([]int, n)
	for i := range rev {
		rev[i] = n - i
	}
	buf := make([]int, n)
	var rec func(w *network.Network, depth int) error
	rec = func(w *network.Network, depth int) error {
		// Compile once per enumerated network; the compiled program
		// serves both the integer path and the 2ⁿ universe sweep.
		prog := eval.Compile(w)
		copy(buf, rev)
		prog.ApplyInts(buf)
		sortsRev := sort.IntsAreSorted(buf)
		isSorter := prog.SortsAll()
		if sortsRev != isSorter {
			return fmt.Errorf("search: de Bruijn violated by %s (rev-sorted=%v, sorter=%v)",
				w.Format(), sortsRev, isSorter)
		}
		if depth == maxComps {
			return nil
		}
		for _, c := range alphabet {
			w.Comps = append(w.Comps, c)
			if err := rec(w, depth+1); err != nil {
				return err
			}
			w.Comps = w.Comps[:len(w.Comps)-1]
		}
		return nil
	}
	return rec(network.New(n), 0)
}

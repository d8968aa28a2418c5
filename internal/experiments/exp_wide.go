package experiments

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"time"

	"sortnets/internal/comb"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/tablefmt"
	"sortnets/internal/verify"
	"sortnets/internal/widevec"
)

// E15WideCertification pushes the paper's polynomial test sets into
// the regime they were made for: networks far beyond 64 lines, where
// a zero-one sweep (2ⁿ inputs) is physically impossible but the
// merger (n²/4) and fixed-k selector (ΣC(n,i)−k−1) test sets certify
// in milliseconds. Extends E5/E3 from the enumerable regime to
// n = 128..512.
func E15WideCertification() Report {
	ok := true
	var sb strings.Builder

	sb.WriteString("Merger certification at widths where 2^n is impossible:\n")
	tb := tablefmt.New("n", "2^n (sweep size)", "paper tests n^2/4", "ran", "verdict", "time", "mutants caught")
	for _, n := range []int{64, 128, 256, 512} {
		merger := gen.HalfMerger(n)
		start := time.Now()
		r := wideVerdict(merger, verify.Merger{N: n}, 0)
		dur := time.Since(start)
		checkf(&ok, r.Holds, &sb, "n=%d: Batcher merger rejected: %s", n, r)
		want := comb.MergerBinaryTestSetSize(n)
		checkf(&ok, want.Cmp(big.NewInt(int64(r.TestsRun))) == 0, &sb,
			"n=%d: ran %d tests, want %s", n, r.TestsRun, want)

		// Mutation spot-check: delete a comparator at several offsets.
		caught, broken := 0, 0
		for i := 0; i < merger.Size(); i += merger.Size()/8 + 1 {
			mutant := network.New(n)
			for j, c := range merger.Comps {
				if j != i {
					mutant.AddPair(c.A, c.B)
				}
			}
			mr := wideVerdict(mutant, verify.Merger{N: n}, 1)
			if !mr.Holds {
				caught++
				broken++
			} else if !wideMergerGroundTruth(mutant) {
				broken++ // broken but undetected: impossible per Thm 2.5
			}
		}
		checkf(&ok, caught == broken, &sb, "n=%d: %d/%d broken mutants caught", n, caught, broken)
		tb.Row(n, fmt.Sprintf("2^%d", n), want, r.TestsRun, r.Holds,
			dur.Round(time.Microsecond), fmt.Sprintf("%d/%d", caught, broken))
	}
	tb.Render(&sb)

	sb.WriteString("\nSelector certification, fixed k, growing n:\n")
	tb2 := tablefmt.New("n", "k", "paper tests", "ran", "verdict", "time")
	for _, tc := range []struct{ n, k int }{{96, 1}, {96, 2}, {128, 2}, {192, 2}, {128, 3}} {
		sel := gen.Selection(tc.n, tc.k)
		start := time.Now()
		r := wideVerdict(sel, verify.Selector{N: tc.n, K: tc.k}, 1)
		dur := time.Since(start)
		checkf(&ok, r.Holds, &sb, "n=%d k=%d: selector rejected: %s", tc.n, tc.k, r)
		want := comb.SelectorBinaryTestSetSize(tc.n, tc.k)
		checkf(&ok, want.Cmp(big.NewInt(int64(r.TestsRun))) == 0, &sb,
			"n=%d k=%d: ran %d, want %s", tc.n, tc.k, r.TestsRun, want)
		tb2.Row(tc.n, tc.k, want, r.TestsRun, r.Holds, dur.Round(time.Microsecond))
	}
	tb2.Render(&sb)
	sb.WriteString("An under-provisioned selector (k-1 passes) at n=128 is caught: ")
	bad := wideVerdict(gen.Selection(128, 1), verify.Selector{N: 128, K: 2}, 1)
	checkf(&ok, !bad.Holds, &sb, "under-provisioned selector accepted")
	fmt.Fprintf(&sb, "%v\n", !bad.Holds)
	return Report{ID: "E15", Title: "wide-width certification (n up to 512)", OK: ok, Body: sb.String()}
}

// wideVerdict certifies p on w with its polynomial wide test set,
// compiling w inside the timed call.
func wideVerdict(w *network.Network, p verify.Property, workers int) verify.WideResult {
	r, _ := verify.VerdictWideProgramCtx(context.Background(), eval.Compile(w), p, workers)
	return r
}

// wideMergerGroundTruth sweeps all (n/2+1)² sorted-half combinations —
// the full merger contract, still polynomial — on the compiled engine
// (the network compiles once; the engine owns the worker pool).
func wideMergerGroundTruth(w *network.Network) bool {
	e := eval.New(eval.Compile(w), 0)
	return e.RunWide(core.MergerWideTests(w.N),
		func(in, out widevec.Vec) bool { return out.IsSorted() }).Holds
}

package experiments

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"time"

	"sortnets/internal/bitvec"
	"sortnets/internal/comb"
	"sortnets/internal/core"
	"sortnets/internal/network"
	"sortnets/internal/perm"
	"sortnets/internal/tablefmt"
	"sortnets/internal/verify"
)

// E1SorterBinary reproduces Theorem 2.2(i): the minimal 0/1 test set
// for sorting has exactly 2ⁿ − n − 1 elements. Measured three ways:
// the constructed set's cardinality, the lower bound via Lemma 2.1
// almost-sorters (every test is necessary), and sufficiency via
// verdict-vs-ground-truth agreement on random networks.
func E1SorterBinary() Report {
	ok := true
	var sb strings.Builder
	tb := tablefmt.New("n", "paper 2^n-n-1", "constructed", "necessity (H_sigma)", "sufficiency (random nets)")
	rng := rand.New(rand.NewSource(1))
	for n := 2; n <= 14; n++ {
		paper := comb.SorterBinaryTestSetSize(n)
		got := bitvec.Count(core.SorterBinaryTests(n))
		checkf(&ok, paper.Cmp(big.NewInt(int64(got))) == 0, &sb, "n=%d size %d != %s", n, got, paper)

		necessity := "-"
		if n <= 9 {
			// Every σ in the set is necessary: H_σ fails only σ.
			all := true
			it := core.SorterBinaryTests(n)
			for {
				v, okNext := it.Next()
				if !okNext {
					break
				}
				if err := core.VerifyAlmostSorter(core.MustAlmostSorter(v), v); err != nil {
					all = false
					checkf(&ok, false, &sb, "n=%d: %v", n, err)
				}
			}
			if all {
				necessity = fmt.Sprintf("all %d forced", got)
			}
		} else {
			// Sampled necessity beyond the exhaustive regime.
			forced := 0
			for trial := 0; trial < 50; trial++ {
				v := bitvec.New(n, rng.Uint64()&(uint64(1)<<uint(n)-1))
				if v.IsSorted() {
					continue
				}
				if core.VerifyAlmostSorter(core.MustAlmostSorter(v), v) == nil {
					forced++
				} else {
					checkf(&ok, false, &sb, "n=%d: sampled σ=%s not forced", n, v)
				}
			}
			necessity = fmt.Sprintf("%d/%d sampled forced", forced, forced)
		}

		sufficiency := "-"
		if n <= 10 {
			agree := 0
			const trials = 40
			for trial := 0; trial < trials; trial++ {
				w := network.Random(n, rng.Intn(n*n), rng)
				v := verify.Verdict(w, verify.Sorter{N: n}).Holds
				g := verify.GroundTruth(w, verify.Sorter{N: n}).Holds
				if v == g {
					agree++
				}
			}
			checkf(&ok, agree == 40, &sb, "n=%d: verdicts disagreed", n)
			sufficiency = fmt.Sprintf("%d/%d agree", agree, 40)
		}
		tb.Row(n, paper, got, necessity, sufficiency)
	}
	tb.Render(&sb)
	return Report{ID: "E1", Title: "sorter 0/1 test set size", OK: ok, Body: sb.String()}
}

// E2SorterPerm reproduces Theorem 2.2(ii): the minimal permutation
// test set has C(n,⌊n/2⌋) − 1 elements, built from the symmetric chain
// decomposition; its cover blankets all non-sorted strings, and the
// verdict it renders agrees with ground truth.
func E2SorterPerm() Report {
	ok := true
	var sb strings.Builder
	tb := tablefmt.New("n", "paper C(n,n/2)-1", "constructed", "cover complete", "verdict agreement")
	rng := rand.New(rand.NewSource(2))
	for n := 2; n <= 12; n++ {
		paper := comb.SorterPermTestSetSize(n)
		ps := core.SorterPermTests(n)
		checkf(&ok, paper.Cmp(big.NewInt(int64(len(ps)))) == 0, &sb,
			"n=%d: %d perms != %s", n, len(ps), paper)

		covered := perm.CoverSet(ps)
		complete := true
		it := core.SorterBinaryTests(n)
		for {
			v, okNext := it.Next()
			if !okNext {
				break
			}
			if !covered[v] {
				complete = false
				checkf(&ok, false, &sb, "n=%d: %s uncovered", n, v)
			}
		}

		agreement := "-"
		if n <= 8 {
			agree, trials := 0, 30
			for trial := 0; trial < trials; trial++ {
				w := network.Random(n, rng.Intn(n*n), rng)
				v := verify.VerdictPerms(w, verify.Sorter{N: n}).Holds
				g := verify.GroundTruth(w, verify.Sorter{N: n}).Holds
				if v == g {
					agree++
				}
			}
			checkf(&ok, agree == trials, &sb, "n=%d: perm verdicts disagreed", n)
			agreement = fmt.Sprintf("%d/%d agree", agree, trials)
		}
		tb.Row(n, paper, len(ps), complete, agreement)
	}
	tb.Render(&sb)
	return Report{ID: "E2", Title: "sorter permutation test set size", OK: ok, Body: sb.String()}
}

// E9Yao reproduces the paper's comparison of the two input models:
// C(n,⌊n/2⌋)−1 permutations against 2ⁿ−n−1 binary strings, with the
// quoted asymptotic C(n,⌊n/2⌋) ≈ 2ⁿ·√(2/(πn)).
func E9Yao() Report {
	ok := true
	var sb strings.Builder
	sb.WriteString("Permutations are strictly cheaper tests for n >= 5; the advantage grows like sqrt(2/(pi*n)).\n")
	tb := tablefmt.New("n", "binary 2^n-n-1", "perm C(n,n/2)-1", "ratio", "Stirling est. of C(n,n/2)")
	prev := 2.0
	for n := 2; n <= 24; n++ {
		bin := comb.SorterBinaryTestSetSize(n)
		pm := comb.SorterPermTestSetSize(n)
		ratio := comb.PermToBinaryRatio(n)
		if n >= 5 {
			checkf(&ok, ratio < 1, &sb, "n=%d: ratio %.3f not < 1", n, ratio)
			checkf(&ok, ratio < prev, &sb, "n=%d: ratio %.4f did not shrink", n, ratio)
		}
		prev = ratio
		tb.Row(n, bin, pm, fmt.Sprintf("%.4f", ratio),
			fmt.Sprintf("%.3e", comb.CentralBinomialEstimate(n)))
	}
	tb.Render(&sb)
	return Report{ID: "E9", Title: "Yao's observation", OK: ok, Body: sb.String()}
}

// E13Growth demonstrates the complexity connection of Section 1: the
// minimal test set stays a constant fraction of 2ⁿ (so testing is
// intractable unless NP = coNP), and measures what the minimal set
// saves over exhaustive sweeps in wall-clock terms.
func E13Growth() Report {
	ok := true
	var sb strings.Builder
	tb := tablefmt.New("n", "|T|", "2^n", "|T|/2^n", "minimal sweep", "exhaustive sweep", "parallel exhaustive")
	for _, n := range []int{8, 12, 16, 20} {
		w := mustSorter(n)
		tSize := new(big.Float).SetInt(comb.SorterBinaryTestSetSize(n))
		uSize := new(big.Float).SetInt(comb.Pow2(n))
		frac, _ := new(big.Float).Quo(tSize, uSize).Float64()
		checkf(&ok, frac > 0.5, &sb, "n=%d: test fraction %.3f not > 1/2", n, frac)

		start := time.Now()
		rMin := verify.Verdict(w, verify.Sorter{N: n})
		minD := time.Since(start)
		start = time.Now()
		rFull := verify.GroundTruth(w, verify.Sorter{N: n})
		fullD := time.Since(start)
		start = time.Now()
		rPar, _ := verify.GroundTruthCtx(context.Background(), w, verify.Sorter{N: n}, 0)
		parD := time.Since(start)
		checkf(&ok, rMin.Holds && rFull.Holds && rPar.Holds, &sb, "n=%d: sorter rejected", n)

		tb.Row(n, comb.SorterBinaryTestSetSize(n), comb.Pow2(n),
			fmt.Sprintf("%.4f", frac), minD.Round(time.Microsecond),
			fullD.Round(time.Microsecond), parD.Round(time.Microsecond))
	}
	sb.WriteString("The fraction tends to 1: almost every input is a required test, the engine of the\n")
	sb.WriteString("coNP-completeness result the authors prove in the companion paper [3].\n")
	tb.Render(&sb)
	return Report{ID: "E13", Title: "growth and verification cost", OK: ok, Body: sb.String()}
}

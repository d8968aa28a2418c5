package verify

import (
	"context"
	"fmt"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/network"
)

// Permutation verdicts. A comparator network's action on an arbitrary
// input commutes with thresholding (the zero-one-principle
// correspondence the paper builds on), so the output on a permutation
// is determined position-wise by the outputs on its n−1 nontrivial
// threshold vectors. For the three paper properties the permutation
// acceptance decomposes exactly into the binary acceptance of every
// threshold:
//
//   - Sorter: the output permutation is sorted iff every threshold
//     output is sorted.
//   - Selector: out[i] = sorted[i] for i < k iff every threshold
//     output agrees with its sorted input on the first k bits — the
//     binary selector acceptance.
//   - Merger: every τᵢ has sorted halves, so its thresholds are
//     in-contract binary vectors, and its output is sorted iff every
//     threshold output is.
//
// So at 2 ≤ n ≤ 64 one sequential block-engine run judges the
// family's threshold lanes, a line source (core.PermThresholds), with
// the property's word-parallel binary judge. The first failing lane's
// stream position ÷ (n−1) is the first failing permutation, the one a
// permutation-at-a-time loop stops at, and one ApplyInts gives its
// output; nothing is re-run. That scalar loop is the path for custom
// properties, n = 1 and n > 64.

// VerdictPerms checks the property using its minimal permutation test
// set — the input model where Yao's observation makes testing cheaper
// than with binary strings — on the network compiled once
// (VerdictPermsCtx).
func VerdictPerms(w *network.Network, p Property) PermResult {
	r, _ := VerdictPermsCtx(context.Background(), eval.Compile(w), p)
	return r
}

// VerdictPermsCtx is VerdictPerms for an already-compiled program
// under a context, as VerdictProgramCtx is for binary tests. The
// paper properties at 2 ≤ n ≤ 64 run on one worker through the block
// engine's line-source path, checked for cancellation once per block;
// any other run is the scalar loop, checked every 64 permutations.
func VerdictPermsCtx(ctx context.Context, prog *eval.Program, p Property) (PermResult, error) {
	n := prog.N()
	if n != p.Lines() {
		panic(fmt.Sprintf("verify: program has %d lines, property wants %d", n, p.Lines()))
	}
	var src *core.PermThresholds
	if 2 <= n && n <= bitvec.MaxN {
		switch q := p.(type) {
		case Sorter:
			src = core.SorterPermThresholds(n)
		case Selector:
			src = core.SelectorPermThresholds(n, q.K)
		case Merger:
			src = core.MergerPermThresholds(n)
		}
	}
	if src == nil {
		return verdictPermsScalar(ctx, prog, p)
	}
	v, err := eval.New(prog, 1).RunCtx(ctx, src, judgeFor(p))
	if err != nil || v.Holds {
		return PermResult{Holds: v.Holds, TestsRun: v.TestsRun / (n - 1)}, err
	}
	i := (v.TestsRun - 1) / (n - 1)
	pm := src.Perm(i)
	out := append([]int(nil), pm...)
	prog.ApplyInts(out)
	return PermResult{TestsRun: i + 1, Counterexample: pm, Output: out}, nil
}

// verdictPermsScalar is the one-permutation-at-a-time loop (in-place
// ApplyInts): the path for custom properties, n = 1 and n > 64.
func verdictPermsScalar(ctx context.Context, prog *eval.Program, p Property) (PermResult, error) {
	out := make([]int, prog.N())
	tests := 0
	for _, pm := range p.PermTests() {
		if tests&63 == 0 {
			if err := ctx.Err(); err != nil {
				return PermResult{}, err
			}
		}
		tests++
		copy(out, pm)
		prog.ApplyInts(out)
		if !p.AcceptsInts(pm, out) {
			return PermResult{Holds: false, TestsRun: tests, Counterexample: pm,
				Output: append([]int(nil), out...)}, nil
		}
	}
	return PermResult{Holds: true, TestsRun: tests}, nil
}

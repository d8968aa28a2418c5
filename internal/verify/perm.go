package verify

import (
	"context"

	"sortnets/internal/eval"
	"sortnets/internal/network"
	"sortnets/internal/perm"
)

// Batched permutation verdicts. A comparator network's action on an
// arbitrary input commutes with thresholding (the zero-one-principle
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
//   - Merger: an in-contract permutation (sorted halves) thresholds to
//     in-contract binary vectors, and its output is sorted iff every
//     threshold output is; out-of-contract permutations are accepted
//     vacuously and skipped.
//
// VerdictPerms therefore evaluates packed threshold batches on the
// compiled engine with the property's word-parallel binary judge
// instead of routing each permutation through the scalar ApplyInts
// loop. The batches are filled LINE-MAJOR straight from the
// permutation values — line i of a permutation with value v is set
// exactly on its top v−1 thresholds, one contiguous bit run — so the
// engine's 64×64 lane transpose is skipped entirely. The scalar loop
// survives as the fallback for custom properties, widths beyond the
// batch, and the (rare, already-failed) counterexample path, which
// re-runs it to report the exact stream-order counterexample.

// halvesSorted reports the merger contract on a permutation.
func halvesSorted(p perm.P) bool {
	h := len(p) / 2
	for i := 1; i < len(p); i++ {
		if i != h && p[i-1] > p[i] {
			return false
		}
	}
	return true
}

// VerdictPerms checks the property using its minimal permutation test
// set — the input model where Yao's observation makes testing cheaper
// than with binary strings. The network is compiled once; for the
// paper properties with n−1 ≤ 64 the permutations are judged through
// their threshold vectors on the word-parallel engine (see the
// package comment above), with the scalar loop as fallback.
func VerdictPerms(w *network.Network, p Property) PermResult {
	r, _ := VerdictPermsCtx(context.Background(), w, p)
	return r
}

func verdictPermsBatch(ctx context.Context, w *network.Network, p Property) (PermResult, error) {
	n := w.N
	tests := p.PermTests()
	judged := tests
	if _, ok := p.(Merger); ok {
		judged = judged[:0:0]
		for _, pm := range tests {
			if halvesSorted(pm) {
				judged = append(judged, pm)
			}
		}
	}
	prog := eval.Compile(w)
	judge := judgeFor(p)
	in := network.NewBatch(n, 1)
	out := network.NewBatch(n, 1)
	var bad [1]uint64

	// Threshold t (1..n−1) of a permutation has bit i set iff
	// p[i] > n−t; packed perm-major with lane j = threshold j+1, line
	// i carries value v as the run of lanes j ≥ n−v. perBatch whole
	// permutations share a batch (lane granularity stays per-perm so
	// no permutation straddles a flush).
	spread := n - 1
	perBatch := network.LanesPerWord / spread
	ones := ^uint64(0) >> uint(64-spread)
	flush := func(lanes int) bool {
		out.Lanes = lanes
		if judge.NeedsInput {
			copy(in.Lines, out.Lines)
			in.Lanes = lanes
		}
		prog.ApplyBatch(out)
		judge.Rejects(in, out, bad[:])
		network.MaskLanes(bad[:], lanes)
		clear(out.Lines)
		return bad[0] == 0
	}
	filled := 0
	for pi := 0; pi < len(judged); {
		base := filled * spread
		for i, v := range judged[pi] {
			// Lanes n−v..spread−1 of this permutation's window.
			out.Lines[i] |= (ones &^ (uint64(1)<<uint(n-v) - 1)) << uint(base)
		}
		filled++
		pi++
		if filled == perBatch || pi == len(judged) {
			if err := ctx.Err(); err != nil {
				return PermResult{}, err
			}
			if !flush(filled * spread) {
				// Some threshold failed, so some permutation test
				// fails: re-run the scalar loop for the exact
				// stream-order counterexample and count.
				return verdictPermsScalar(ctx, w, p)
			}
			filled = 0
		}
	}
	return PermResult{Holds: true, TestsRun: len(tests)}, nil
}

// verdictPermsScalar is the one-permutation-at-a-time loop (compiled
// program, in-place ApplyInts): the fallback for custom properties and
// wide networks, and the counterexample reporter.
func verdictPermsScalar(ctx context.Context, w *network.Network, p Property) (PermResult, error) {
	prog := eval.Compile(w)
	out := make([]int, w.N)
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

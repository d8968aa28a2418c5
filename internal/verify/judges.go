package verify

import (
	"math/bits"

	"sortnets/internal/eval"
	"sortnets/internal/network"
)

// Property-to-judge lowering: each built-in property compiles to a
// word-parallel eval.Judge so a whole block is judged with a handful
// of word ops per 64 lanes; unknown properties fall back to the
// per-lane adapter (the network evaluation — the expensive part —
// stays word-parallel either way).

// JudgeFor exposes the lowering for callers that stream custom test
// families through an engine themselves (the Session's test-stream
// override).
func JudgeFor(p Property) eval.Judge { return judgeFor(p) }

func judgeFor(p Property) eval.Judge {
	switch prop := p.(type) {
	case Sorter:
		return eval.SortedJudge()
	case Merger:
		return mergerJudge(prop.N)
	default:
		// Selector (whose expected prefix depends on each lane's zero
		// count, with no cheap word-parallel form) and any custom
		// property are judged per lane through the one acceptance
		// definition in AcceptsBinary — the evaluation stays
		// word-parallel either way.
		return eval.PerLaneJudge(p.AcceptsBinary)
	}
}

// mergerJudge rejects in-contract lanes (both input halves sorted)
// whose outputs are not sorted; out-of-contract lanes are accepted
// vacuously. The common all-lanes-sorted case needs one word-parallel
// pass and no per-lane work at all.
func mergerJudge(n int) eval.Judge {
	h := n / 2
	return eval.Judge{
		NeedsInput: true,
		Rejects: func(in, out *network.Batch, bad []uint64) {
			out.UnsortedLanes(bad)
			// Per-lane contract check only on the rare unsorted lanes.
			for g, w := range bad {
				for w != 0 {
					lane := g*64 + bits.TrailingZeros64(w)
					w &= w - 1
					v := in.Lane(lane)
					if !(v.Slice(0, h).IsSorted() && v.Slice(h, n).IsSorted()) {
						bad[g] &^= 1 << uint(lane&63)
					}
				}
			}
		},
	}
}

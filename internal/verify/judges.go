package verify

import (
	"math/bits"

	"sortnets/internal/eval"
	"sortnets/internal/network"
)

// Property-to-judge lowering: each built-in property compiles to a
// word-parallel eval.Judge, at any width, so a whole block is judged
// with a handful of word ops per line and 64 lanes; unknown properties
// fall back to the per-lane adapter (the network evaluation — the
// expensive part — stays word-parallel either way).

// JudgeFor exposes the lowering for callers that stream a test
// family through an engine themselves (the Session's shared
// eval.RunManyCtx passes).
func JudgeFor(p Property) eval.Judge { return judgeFor(p) }

func judgeFor(p Property) eval.Judge {
	switch prop := p.(type) {
	case Sorter:
		return eval.SortedJudge()
	case Merger:
		return mergerJudge(prop.N / 2)
	case Selector:
		return selectorJudge(prop.K)
	default:
		// A custom property is judged per lane through its one
		// acceptance definition, AcceptsBinary.
		return eval.PerLaneJudge(p.AcceptsBinary)
	}
}

// mergerJudge rejects in-contract lanes (lines 0..h−1 and h..n−1 of
// the input both sorted) whose outputs are not sorted; out-of-contract
// lanes are accepted vacuously. The contract mask is the UnsortedLanes
// scan run over each input half.
func mergerJudge(h int) eval.Judge {
	return eval.Judge{
		NeedsInput: true,
		Rejects: func(in, out *network.Batch, bad []uint64) {
			out.UnsortedLanes(bad)
			for g := range bad {
				bad[g] &^= in.Unsorted(g, 0, h) | in.Unsorted(g, h, in.N)
			}
		},
	}
}

// selectorJudge rejects lanes whose output line i, for some i < k,
// differs from line i of the sorted input: 0 while i is below the
// input's zero count, 1 from there on. The zero count of all 64 lanes
// of a word is kept bit-sliced (plane b holds bit b of every lane's
// count) and built by a ripple-carry add of each input line's zeros.
func selectorJudge(k int) eval.Judge {
	return eval.Judge{
		NeedsInput: true,
		Rejects: func(in, out *network.Batch, bad []uint64) {
			W := in.W
			var planes [bits.UintSize]uint64
			count := planes[:bits.Len(uint(in.N))]
			for g := range bad {
				clear(count)
				for i := g; i < len(in.Lines); i += W {
					carry := ^in.Lines[i]
					for p := 0; carry != 0; p++ {
						count[p], carry = count[p]^carry, count[p]&carry
					}
				}
				var rej uint64
				for i := 0; i < min(k, in.N); i++ {
					// above: lanes whose zero count exceeds i, i.e.
					// whose sorted input carries 0 on line i.
					var above uint64
					eq := ^uint64(0)
					for p := len(count) - 1; p >= 0; p-- {
						if i>>uint(p)&1 == 1 {
							eq &= count[p]
						} else {
							above |= eq & count[p]
							eq &^= count[p]
						}
					}
					rej |= out.Lines[i*W+g] ^ ^above
				}
				bad[g] = rej
			}
		},
	}
}

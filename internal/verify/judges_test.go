package verify

import (
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/eval"
	"sortnets/internal/network"
)

// TestJudgesMatchAcceptsBinary: every lowered judge rejects exactly
// the lanes its property's scalar AcceptsBinary rejects — the sorter,
// the merger and the (k,n)-selector at every k, on random pure
// networks and on random impure programs over all eight opcodes
// (clamps and shorts change a lane's zero count, comparators do not),
// at n = 2..16, in full 256-lane blocks and ragged ones. Verdict and
// GroundTruth share judgeFor, so only this comparison can see a judge
// bug.
func TestJudgesMatchAcceptsBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 2; n <= 16; n++ {
		props := []Property{Sorter{N: n}}
		if n%2 == 0 {
			props = append(props, Merger{N: n})
		}
		for k := 1; k <= n; k++ {
			props = append(props, Selector{N: n, K: k})
		}
		for trial := 0; trial < 8; trial++ {
			prog := eval.Compile(network.Random(n, rng.Intn(3*n), rng))
			if trial%2 == 1 {
				prog = eval.NewProgram(n, randomOps(n, rng))
			}
			for _, lanes := range []int{256, 1 + rng.Intn(255)} {
				vs := judgeInputs(n, lanes, rng)
				in, out := network.LoadVecs(n, vs), network.LoadVecs(n, vs)
				prog.ApplyBatch(out)
				for _, p := range props {
					bad := make([]uint64, in.W)
					judgeFor(p).Rejects(in, out, bad)
					network.MaskLanes(bad, lanes)
					for lane, v := range vs {
						got := bad[lane>>6]>>uint(lane&63)&1 == 1
						if want := !p.AcceptsBinary(v, prog.Apply(v)); got != want {
							t.Fatalf("%s, trial %d, lane %d of %d: input %s output %s rejected %v, AcceptsBinary says %v",
								p.Name(), trial, lane, lanes, v, prog.Apply(v), got, want)
						}
					}
				}
			}
		}
	}
}

// randomOps is a random op sequence over all eight opcodes.
func randomOps(n int, rng *rand.Rand) []eval.Op {
	ops := make([]eval.Op, rng.Intn(3*n))
	for i := range ops {
		a := rng.Intn(n - 1)
		ops[i] = eval.Op{Kind: eval.OpKind(rng.Intn(8)), A: uint16(a), B: uint16(a + 1 + rng.Intn(n-1-a))}
	}
	return ops
}

// judgeInputs mixes uniformly random lanes with the shapes the judges
// single out: both halves sorted (the merger contract) and few zeros
// (the selector's test set).
func judgeInputs(n, lanes int, rng *rand.Rand) []bitvec.Vec {
	vs := make([]bitvec.Vec, lanes)
	for i := range vs {
		switch rng.Intn(3) {
		case 0:
			vs[i] = bitvec.New(n, rng.Uint64()&(1<<uint(n)-1))
		case 1:
			h := n / 2
			vs[i] = bitvec.Concat(bitvec.SortedWithOnes(h, rng.Intn(h+1)), bitvec.SortedWithOnes(n-h, rng.Intn(n-h+1)))
		default:
			v := bitvec.AllOnes(n)
			for z := rng.Intn(4); z > 0; z-- {
				v = v.SetBit(rng.Intn(n), 0)
			}
			vs[i] = v
		}
	}
	return vs
}

package eval

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// rejoinFaults returns faults on w whose last edit leaves at least
// 16n comparators, so the pass carries their differing lines: every
// comparator-shaped replacement and every clamp of the first comparators,
// shorts of adjacent lines there, and random multi-edit faults.
func rejoinFaults(w *network.Network, rng *rand.Rand) [][]Edit {
	n, C := w.N, len(w.Comps)
	early := C - rejoinTailPerLine*n
	var faults [][]Edit
	for i := 0; i < early; i += 6 {
		c := w.Comps[i]
		for k := OpCmp; k <= OpRevCmp; k++ {
			faults = append(faults, []Edit{{At: int32(i), Op: Op{Kind: k, A: uint16(c.A), B: uint16(c.B)}}})
		}
		faults = append(faults,
			[]Edit{{At: int32(i), Op: Op{Kind: OpClamp0 + OpKind(i%2), A: uint16(c.B)}}},
			[]Edit{{At: int32(i), Op: Op{Kind: OpShortOR + OpKind(i%2), A: uint16(i % (n - 1)), B: uint16(i%(n-1) + 1)}}})
	}
	for len(faults)%7 != 6 {
		faults = append(faults, randomEdits(w, 6, rng))
	}
	return append(faults, nil)
}

// pureApplied is the comparators a keep-all pass of set over blocks
// blocks applies when every fault runs to the end: each block's
// healthy run, and each fault's comparators from its first edit on that
// no edit replaces.
func pureApplied(set *FaultSet, blocks int) int64 {
	C := len(set.comps)
	total := C
	start := 0
	for _, end := range set.ends {
		if edits := set.edits[start:end]; len(edits) > 0 {
			total += C - int(edits[0].At)
			for _, e := range edits {
				if e.replaces() {
					total--
				}
			}
		}
		start = end
	}
	return int64(total * blocks)
}

// TestFaultPassRejoinMatchesReference: on long random networks, where
// faults carry their differing lines and leave the pass where they
// rejoin the healthy run, every fault still gets exactly the reference's
// rejected lanes (checkFaultPass), at one word per line (n ≤ 6), two
// (n = 7) and four (n = 8), over the universe and over a slice whose
// last block is ragged. The pass must apply fewer comparators than
// running every fault to the end.
func TestFaultPassRejoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, c := range []struct{ n, comps int }{{3, 80}, {5, 120}, {7, 160}, {8, 200}, {9, 220}} {
		w := randomNet(c.n, c.comps, rng)
		faults := rejoinFaults(w, rng)
		tests := bitvec.Collect(bitvec.All(c.n))
		if c.n == 9 {
			tests = tests[:300]
			rng.Shuffle(len(tests), func(i, j int) { tests[i], tests[j] = tests[j], tests[i] })
		}
		desc := fmt.Sprintf("n=%d, %d comparators, %d faults", c.n, c.comps, len(faults))
		checkFaultPass(t, w, tests, faults, desc)

		set := newSet(w, faults)
		all := make([]int, len(faults))
		for i := range all {
			all[i] = i
		}
		if err := set.RunCtx(context.Background(), all, bitvec.Slice(tests), SortedJudge(), func(int, int, []uint64) bool { return false }); err != nil {
			t.Fatal(err)
		}
		blocks := (len(tests) + maxLanes - 1) / maxLanes
		pure := pureApplied(set, blocks)
		t.Logf("%s: %d comparators applied, %d running every fault to the end", desc, set.Applied(), pure)
		if set.Applied() >= pure*3/4 {
			t.Errorf("%s: the pass applied %d comparators, running every fault to the end %d: faults do not leave where they rejoin", desc, set.Applied(), pure)
		}
	}
}

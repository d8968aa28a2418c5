// Quickstart: verify a sorting network with the paper's minimal test
// set instead of all 2ⁿ inputs — and see why not one test can be
// dropped.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"sortnets"
)

func main() {
	const n = 8
	ctx := context.Background()
	sess := sortnets.NewSession()
	defer sess.Close()
	prop := sortnets.SorterProp{N: n}

	// Build Batcher's odd-even mergesort network for 8 lines.
	w := sortnets.BatcherSorter(n)
	fmt.Printf("Batcher sorter, n=%d: %d comparators, depth %d\n", n, w.Size(), w.Depth())

	// Decide sorter-ness with the minimal test set: 2⁸−8−1 = 247
	// inputs instead of the 256 of the exhaustive sweep — and the
	// paper proves 247 is exactly optimal: no test set is smaller.
	res, err := sess.Check(ctx, w, prop)
	if err != nil {
		log.Fatal(err)
	}
	gt, err := sess.GroundTruth(ctx, w, prop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimal test set verdict: %s\n", res)
	fmt.Printf("exhaustive ground truth:  %s\n", gt)

	// Permutation tests are cheaper still (Yao's observation):
	// C(8,4)−1 = 69 permutations suffice.
	perms := prop.PermTests()
	fmt.Printf("permutation test set size: %d (binary: %s)\n",
		len(perms), sortnets.SorterTestSetSize(n))

	// Why can't we drop a test? For ANY non-sorted σ there is a
	// network sorting everything except σ (Lemma 2.1). Drop σ from
	// the test set and this adversary slips through.
	sigma := sortnets.MustVec("01101000")
	h, err := sortnets.AlmostSorter(sigma)
	if err != nil {
		log.Fatal(err)
	}
	r, err := sess.Check(ctx, h, prop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadversary H_σ for σ=%s (%d comparators):\n", sigma, h.Size())
	fmt.Printf("  full test set verdict: %s\n", r)
	fmt.Printf("  → only σ itself exposes it; every other of the %s tests passes.\n",
		sortnets.SorterTestSetSize(n))

	// The exact sizes scale to any n without enumeration.
	for _, big := range []int{16, 32, 64} {
		fmt.Printf("n=%2d: binary tests %s, permutation tests %s\n",
			big, sortnets.SorterTestSetSize(big), sortnets.SorterPermTestSetSize(big))
	}
}

// Top-k selection hardware: a router ASIC must expose the k smallest
// of n priority tags on its first k output lanes — a (k,n)-selector.
// Theorem 2.4 says certifying that costs Σᵢ₌₀..k C(n,i) − k − 1 tests,
// polynomial for fixed k, instead of 2ⁿ: this example certifies
// selection datapaths and demonstrates the cost cliff as k grows.
//
// Run with: go run ./examples/selectornets
package main

import (
	"context"
	"fmt"
	"log"

	"sortnets"
)

func main() {
	const n = 16
	ctx := context.Background()
	sess := sortnets.NewSession()
	defer sess.Close()
	// check decides the (k,n)-selector property with its minimal test set.
	check := func(w *sortnets.Network, k int) sortnets.Result {
		r, err := sess.Check(ctx, w, sortnets.SelectorProp{N: n, K: k})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	fmt.Printf("Certifying (k,%d)-selector datapaths (Theorem 2.4):\n\n", n)
	fmt.Printf("%-4s %-22s %-22s %s\n", "k", "selector tests", "full sorter tests", "saving")
	for _, k := range []int{1, 2, 3, 4} {
		sel := sortnets.SelectorTestSetSize(n, k)
		full := sortnets.SorterTestSetSize(n)
		fmt.Printf("%-4d %-22s %-22s 2^n-style sweep avoided\n", k, sel, full)
	}
	fmt.Println()

	// Certify a correct selection datapath for k = 3.
	const k = 3
	good := sortnets.SelectionNetwork(n, k)
	res := check(good, k)
	fmt.Printf("selection datapath (%d comparators): %s\n", good.Size(), res)

	// A subtle bug: the designer budgeted only k−1 selection passes.
	buggy := sortnets.SelectionNetwork(n, k-1)
	res = check(buggy, k)
	fmt.Printf("under-provisioned datapath:          %s\n", res)
	if res.Holds {
		panic("the test set must catch the missing pass")
	}

	// A sorter is always a selector — certification is compositional.
	sorter := sortnets.BatcherSorter(n)
	fmt.Printf("full Batcher sorter as selector:     %s\n", check(sorter, k))

	// Permutation tests shrink the bill further: C(n,k)−1 for k ≤ n/2.
	fmt.Printf("\npermutation tests for k=%d: %d permutations (binary: %s)\n",
		k, len(sortnets.SelectorProp{N: n, K: k}.PermTests()), sortnets.SelectorTestSetSize(n, k))

	// Cross-check the verdicts against exhaustive ground truth.
	gt, err := sess.GroundTruth(ctx, good, sortnets.SelectorProp{N: n, K: k})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground truth agrees: %v (%d inputs swept)\n", gt.Holds, gt.TestsRun)
}

// Merge-unit audit: a database sort accelerator contains an
// (n/2,n/2) merge stage. Theorem 2.5 certifies merge units with just
// n²/4 binary tests — or n/2 permutation tests, LINEAR in the width —
// against the 2ⁿ of a naive sweep. This example audits Batcher's
// odd-even merger, then mutates it comparator by comparator to show
// the tiny test set still catches every real defect.
//
// Run with: go run ./examples/mergeraudit
package main

import (
	"context"
	"fmt"
	"log"

	"sortnets"
	"sortnets/internal/core"
	"sortnets/internal/network"
)

func main() {
	const n = 16
	ctx := context.Background()
	sess := sortnets.NewSession()
	defer sess.Close()
	merger := sortnets.BatcherMerger(n)
	prop := sortnets.MergerProp{N: n}

	fmt.Printf("Merge unit: Batcher odd-even (%d,%d)-merger, %d comparators, depth %d.\n",
		n/2, n/2, merger.Size(), merger.Depth())
	fmt.Printf("Certification cost (Theorem 2.5): %s binary tests or %d permutation tests\n",
		sortnets.MergerTestSetSize(n), len(prop.PermTests()))
	fmt.Printf("(a naive sweep would use %d inputs)\n\n", 1<<n)

	bin, err := sess.Check(ctx, merger, prop)
	if err != nil {
		log.Fatal(err)
	}
	perm, err := sess.CheckPerms(ctx, merger, prop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary audit:      %s\n", bin)
	fmt.Printf("permutation audit: %s\n", perm)

	// Mutation audit: delete each comparator in turn. Redundant
	// comparators exist in no optimal merger, so every deletion must
	// be caught by the n²/4-test program.
	fmt.Printf("\nmutation audit (%d single-comparator deletions):\n", merger.Size())
	caught, benign := 0, 0
	for i := 0; i < merger.Size(); i++ {
		mutant := network.New(n)
		for j, c := range merger.Comps {
			if j != i {
				mutant.AddPair(c.A, c.B)
			}
		}
		r, err := sess.Check(ctx, mutant, prop)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case !r.Holds:
			caught++
		case core.IsMergerBinary(mutant):
			benign++ // genuinely redundant comparator
		default:
			panic(fmt.Sprintf("mutant %d broken but undetected: impossible by Theorem 2.5", i))
		}
	}
	fmt.Printf("  %d mutants caught, %d benign (redundant comparator)\n", caught, benign)

	// Scale table: the linear permutation bill.
	fmt.Println("\ncertification bill by merge width:")
	fmt.Printf("%-8s %-16s %-16s %s\n", "n", "binary n^2/4", "perm n/2", "naive 2^n")
	for _, width := range []int{8, 16, 32, 64} {
		fmt.Printf("%-8d %-16s %-16d %s\n", width,
			sortnets.MergerTestSetSize(width), width/2, pow2str(width))
	}
}

func pow2str(n int) string {
	if n < 63 {
		return fmt.Sprint(int64(1) << uint(n))
	}
	return fmt.Sprintf("2^%d", n)
}

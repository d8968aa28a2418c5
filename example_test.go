package sortnets_test

import (
	"context"
	"fmt"

	"sortnets"
)

// The worked example of the paper's Fig. 1: a four-line network that
// looks plausible but fails to sort.
func Example() {
	sess := sortnets.NewSession()
	defer sess.Close()
	w := sortnets.MustParseNetwork("n=4: [1,3][2,4][1,2][3,4]")
	r, err := sess.Check(context.Background(), w, sortnets.SorterProp{N: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println(r)
	// Output:
	// fails on 1010 -> 0101 (after 5 tests)
}

// Certifying Batcher's 8-line sorter with the minimal test set of
// Theorem 2.2(i): 247 vectors instead of the 256 of a full sweep —
// and provably none can be dropped.
func ExampleSession_Check() {
	sess := sortnets.NewSession()
	defer sess.Close()
	w := sortnets.BatcherSorter(8)
	r, err := sess.Check(context.Background(), w, sortnets.SorterProp{N: 8})
	if err != nil {
		panic(err)
	}
	fmt.Println(r)
	// Output:
	// holds (247 tests)
}

// The Lemma 2.1 adversary: a network that sorts every input except
// one chosen string — the reason the minimal test set is minimal.
func ExampleAlmostSorter() {
	sigma := sortnets.MustVec("0110")
	h, err := sortnets.AlmostSorter(sigma)
	if err != nil {
		panic(err)
	}
	sess := sortnets.NewSession()
	defer sess.Close()
	r, err := sess.Check(context.Background(), h, sortnets.SorterProp{N: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println(r)
	// Output:
	// fails on 0110 -> 0101 (after 6 tests)
}

// Theorem 2.5's linear permutation test set: four permutations
// certify an 8-line merge unit.
func ExampleMergerProp_PermTests() {
	for _, p := range (sortnets.MergerProp{N: 8}).PermTests() {
		fmt.Println(p)
	}
	// Output:
	// (5 6 7 8 1 2 3 4)
	// (1 6 7 8 2 3 4 5)
	// (1 2 7 8 3 4 5 6)
	// (1 2 3 8 4 5 6 7)
}

// Wide-width certification: at 128 lines a zero-one sweep would need
// 2¹²⁸ inputs; the merger property needs 4096.
func ExampleSession_Wide() {
	sess := sortnets.NewSession()
	defer sess.Close()
	m := sortnets.BatcherMerger(128)
	r, err := sess.Wide(context.Background(), m, sortnets.MergerProp{N: 128}, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(r)
	// Output:
	// holds (4096 tests)
}

// Exact closed-form sizes work far beyond the enumerable regime.
func ExampleSorterTestSetSize() {
	fmt.Println(sortnets.SorterTestSetSize(10))
	fmt.Println(sortnets.SorterTestSetSize(64))
	// Output:
	// 1013
	// 18446744073709551551
}

// The exact minimum test set for height-1 (primitive) networks,
// computed by exhausting the behaviour space: n−1 tests, versus de
// Bruijn's single permutation test.
func ExampleExactMinimumTestSet() {
	r, err := sortnets.ExactMinimumTestSet(5, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(r.Size)
	for _, v := range r.Tests {
		fmt.Println(v)
	}
	// Output:
	// 4
	// 10000
	// 11000
	// 11100
	// 11110
}

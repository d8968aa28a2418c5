// VLSI burn-in scenario: a batch of sorting-network chips comes off
// the line; some have manufacturing defects. The paper's motivation
// ("testing VLSI circuits for possible hardware failures") becomes a
// test program: apply the minimal test set to every chip and bin the
// defective ones, then measure single-fault coverage.
//
// Run with: go run ./examples/vlsitest
package main

import (
	"fmt"
	"math/rand"

	"sortnets"
	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/faults"
	"sortnets/internal/gen"
)

func main() {
	const n = 6
	golden := gen.Sorter(n) // the chip's intended design

	fmt.Printf("Design under test: optimal %d-line sorter, %d comparators.\n", n, golden.Size())
	fmt.Printf("Test program: the %s-vector minimal test set of Theorem 2.2.\n\n",
		sortnets.SorterTestSetSize(n))

	// Simulate a production batch: most chips are good; some carry a
	// random single fault.
	rng := rand.New(rand.NewSource(7))
	universe := faults.Enumerate(golden)
	type chip struct {
		id    int
		fault faults.Fault // nil = good die
	}
	var batch []chip
	for i := 0; i < 20; i++ {
		c := chip{id: i}
		if rng.Intn(3) == 0 {
			c.fault = universe[rng.Intn(len(universe))]
		}
		batch = append(batch, c)
	}

	// Burn-in: run the minimal test set against each chip. Each die —
	// healthy or faulty — compiles once to an eval.Program and streams
	// the tests through the word-parallel block engine.
	tests := func() bitvec.Iterator { return core.SorterBinaryTests(n) }
	goldenProg := eval.Compile(golden)
	pass, fail := 0, 0
	for _, c := range batch {
		prog := goldenProg
		if c.fault != nil {
			prog = faults.Compile(golden, c.fault)
		}
		verdict := eval.New(prog, 1).Run(tests(), eval.SortedJudge())
		defective := !verdict.Holds
		if defective {
			fmt.Printf("chip %2d: REJECT  (test %s -> %s", c.id, verdict.In, verdict.Out)
			fmt.Printf(", fault: %s)\n", c.fault.Describe())
		}
		if defective {
			fail++
		} else {
			label := "good die"
			if c.fault != nil {
				label = "fault latent: " + c.fault.Describe()
			}
			fmt.Printf("chip %2d: PASS    (%s)\n", c.id, label)
			pass++
		}
	}
	fmt.Printf("\nbinned: %d pass, %d reject\n\n", pass, fail)

	// Coverage report over the whole single-fault universe.
	rep := faults.Measure(golden, universe, tests, faults.ByProperty)
	fmt.Printf("single-fault coverage of the minimal test set: %s\n", rep)
	aug := faults.Measure(golden, universe,
		func() bitvec.Iterator { return bitvec.All(n) }, faults.ByProperty)
	fmt.Printf("with the n+1 sorted vectors added:              %s\n", aug)
	fmt.Println("\nFaults that survive the minimal set are visible only on sorted inputs")
	fmt.Println("(outside the theorem's scope); appending the n+1 sorted vectors closes the gap.")
}

// Command minsearch computes exact minimum test sets by exhausting the
// behaviour space of comparator networks — the engine behind
// experiments E10/E11/E14 and the tool for exploring the paper's
// Section 3 open questions.
//
// Usage:
//
//	minsearch -n 4                      # sorter, unrestricted, 0/1 inputs
//	minsearch -n 5 -height 2            # the paper's open question
//	minsearch -n 4 -inputs perm         # permutation inputs
//	minsearch -n 4 -prop selector -k 2
//	minsearch -n 4 -prop merger -show   # print the witness test set
//	minsearch -n 5 -height 2 -workers 8 # branch and bound on 8 workers
//	minsearch -n 5 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Profiling and parallelism flags:
//
//	-workers N     branch-and-bound workers; N ≤ 1 (default 0) runs
//	               the whole search sequentially with a reproducible
//	               witness, N > 1 spreads the branch and bound over N
//	               workers (same minimum, witness may vary); the
//	               closure BFS and failure-family build are always
//	               sequential
//	-cpuprofile F  write a pprof CPU profile of the search to F
//	-memprofile F  write a pprof heap profile (taken after the search,
//	               post-GC) to F
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"sortnets/internal/search"
)

func main() {
	n := flag.Int("n", 4, "number of lines (binary: n ≤ 6; perm: n ≤ 6)")
	height := flag.Int("height", 0, "comparator height bound (0 = unrestricted)")
	prop := flag.String("prop", "sorter", "property: sorter | selector | merger")
	k := flag.Int("k", 1, "selection arity (selector only)")
	inputs := flag.String("inputs", "binary", "input model: binary | perm")
	limit := flag.Int("limit", 20_000_000, "behaviour closure cap")
	show := flag.Bool("show", false, "print the minimum test set itself")
	workers := flag.Int("workers", 0, "branch-and-bound workers: ≤ 1 = sequential (reproducible witness), k > 1 = a pool of k")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	// Profiles are stopped/written explicitly (not deferred): the
	// error path below exits with os.Exit, which would skip defers and
	// truncate the profile of a failing search.
	var cpuFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "minsearch:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "minsearch:", err)
			os.Exit(2)
		}
		cpuFile = f
	}

	err := run(*n, *height, *prop, *k, *inputs, *limit, *show, *workers)

	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
	}

	// Profile I/O problems are reported but must not mask a search
	// error, so both are printed before deciding the exit code.
	failed := err != nil
	if *memprofile != "" {
		if merr := writeHeapProfile(*memprofile); merr != nil {
			fmt.Fprintln(os.Stderr, "minsearch:", merr)
			failed = true
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "minsearch:", err)
	}
	if failed {
		os.Exit(2)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle allocations so the heap profile reflects retention
	return pprof.WriteHeapProfile(f)
}

func run(n, height int, prop string, k int, inputs string, limit int, show bool, workers int) error {
	h := height
	if h <= 0 {
		h = n - 1
	}
	opt := search.Options{Limit: limit, Workers: workers}
	switch inputs {
	case "binary":
		var acc search.Acceptance
		switch prop {
		case "sorter":
			acc = search.SorterAccepts
		case "selector":
			acc = search.SelectorAccepts(k)
		case "merger":
			if n%2 != 0 {
				return errors.New("merger needs even n")
			}
			acc = search.MergerAccepts
		default:
			return fmt.Errorf("unknown property %q", prop)
		}
		r, err := search.MinimumTestSetOpts(n, h, acc, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		if show {
			for _, v := range r.Tests {
				fmt.Println(" ", v)
			}
		}
	case "perm":
		var acc search.PermAcceptance
		switch prop {
		case "sorter":
			acc = search.PermSorterAccepts
		case "selector":
			acc = search.PermSelectorAccepts(k)
		case "merger":
			if n%2 != 0 {
				return errors.New("merger needs even n")
			}
			acc = search.PermMergerAccepts
		default:
			return fmt.Errorf("unknown property %q", prop)
		}
		r, err := search.MinimumPermTestSetOpts(n, h, acc, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		if show {
			for _, p := range r.Tests {
				fmt.Println(" ", p)
			}
		}
	default:
		return fmt.Errorf("unknown input model %q", inputs)
	}
	return nil
}

package faults

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/network"
)

// faultPassAllocBound caps the bytes one coverage measurement of
// TestFaultMemoryLinear may allocate: the fault list, its edits and a
// checkpoint slab per chunk, all linear in the comparator count (about
// 2 MB here), where one whole program per fault is quadratic (about
// 74 MB).
const faultPassAllocBound = 16 << 20

// TestFaultMemoryLinear: the fault pass over a 12-line,
// 2,048-comparator random network allocates memory linear in its
// comparators, not one op sequence per fault.
func TestFaultMemoryLinear(t *testing.T) {
	w := network.Random(12, 2048, rand.New(rand.NewSource(12)))
	fs := Enumerate(w)
	tests := func() bitvec.Iterator { return core.SorterBinaryTests(12) }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := MeasureCtx(context.Background(), w, nil, fs, tests, ByProperty)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != len(fs) || rep.Detectable == 0 {
		t.Fatalf("implausible report %+v", rep)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d faults on %d comparators: %.1f MB allocated (bound %d MB)", len(fs), w.Size(), float64(alloc)/(1<<20), faultPassAllocBound>>20)
	if alloc > faultPassAllocBound {
		t.Fatalf("MeasureCtx allocated %.1f MB on %d comparators, bound %d MB: the fault pass is no longer linear in the comparators",
			float64(alloc)/(1<<20), w.Size(), faultPassAllocBound>>20)
	}
}

// faultPassWorkBound caps the comparators one fault pass over the 2ⁿ
// universe applies, per comparator of the circuit and per block, in
// TestFaultPassWorkLinear: 215, 183 and 138 on its random 12-line
// networks of 512, 1,024 and 2,048 comparators, where running every
// fault to the end applies about 3C/2 per comparator and block (1,581
// at 1,024 comparators).
const faultPassWorkBound = 250

// TestFaultPassWorkLinear: a fault pass leaves each fault where it
// rejoins the healthy run, so the comparators it applies grow linearly
// with the circuit, not quadratically. The pass keeps every fault for
// every block, as a detection matrix's does.
func TestFaultPassWorkLinear(t *testing.T) {
	for _, comps := range []int{512, 1024, 2048} {
		w := network.Random(12, comps, rand.New(rand.NewSource(int64(comps))))
		fs := Enumerate(w)
		set := faultSet(w, fs)
		all := make([]int, len(fs))
		for i := range all {
			all[i] = i
		}
		err := set.RunCtx(context.Background(), all, bitvec.All(w.N), judgeFor(ByProperty), func(int, int, []uint64) bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		blocks := (bitvec.Universe(w.N) + eval.KernelLanes() - 1) / eval.KernelLanes()
		per := float64(set.Applied()) / float64(comps*blocks)
		t.Logf("%d faults on %d comparators: %d comparators applied, %.0f per comparator and block (bound %d)", len(fs), comps, set.Applied(), per, faultPassWorkBound)
		if per > faultPassWorkBound {
			t.Errorf("%d comparators: the pass applied %.0f comparators per comparator and block, bound %d: faults no longer leave where they rejoin", comps, per, faultPassWorkBound)
		}
	}
}

// TestSorterTestsJudgedInOnePass: a sorter's tests are a span of the
// universe, so a chunk's pass judges each universe block once for both
// detectability and detection, applying exactly the comparators of one
// pass over the universe; the same tests as a slice take a universe
// pass and then a test pass.
func TestSorterTestsJudgedInOnePass(t *testing.T) {
	ctx := context.Background()
	w := prefixedSorter8()
	fs := Enumerate(w)
	all := make([]int, len(fs))
	for i := range all {
		all[i] = i
	}
	keepAll := func(int, int, []uint64) bool { return false }
	universe := faultSet(w, fs)
	if err := universe.RunCtx(ctx, all, bitvec.All(w.N), judgeFor(ByProperty), keepAll); err != nil {
		t.Fatal(err)
	}
	applied := func(tests bitvec.Iterator) int64 {
		c := chunk{set: faultSet(w, fs), lo: 0, hi: len(fs), judge: judgeFor(ByProperty)}
		if err := c.pass(ctx, tests, make([]bool, len(fs)), func(int, int, []uint64, []uint64) bool { return false }); err != nil {
			t.Fatal(err)
		}
		return c.set.Applied()
	}
	if got, want := applied(sorterTests8()), universe.Applied(); got != want {
		t.Errorf("the pass over the sorter's test span applied %d comparators, one pass over the universe %d", got, want)
	}
	slice := bitvec.Slice(bitvec.Collect(sorterTests8()))
	if got, once := applied(slice), universe.Applied(); got <= once {
		t.Errorf("the pass over the sorter's tests as a slice applied %d comparators, no more than one universe pass's %d", got, once)
	}
}

// TestEnumerateAllocs: the single-fault universe boxes each fault kind
// from one backing array, so it costs the list and the three arrays,
// not one allocation per fault.
func TestEnumerateAllocs(t *testing.T) {
	w := prefixedSorter8()
	var fs []Fault
	allocs := testing.AllocsPerRun(100, func() { fs = Enumerate(w) })
	if want := 3*w.Size() + 2*w.N + 2*(w.N-1); len(fs) != want {
		t.Fatalf("enumerated %d faults, want %d", len(fs), want)
	}
	t.Logf("%d faults: %.0f allocations", len(fs), allocs)
	if allocs > 4 {
		t.Fatalf("Enumerate allocates %.0f times for %d faults, want at most 4", allocs, len(fs))
	}
}

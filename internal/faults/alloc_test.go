package faults

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
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

package faults

import (
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

func TestNoFaultEqualsCleanEvaluation(t *testing.T) {
	// A CompFault with an out-of-range index never triggers, so the
	// evaluation must coincide with the clean network on all inputs.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		w := network.Random(n, rng.Intn(3*n), rng)
		ghost := CompFault{Index: -1, Mode: Bypass}
		it := bitvec.All(n)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if ghost.Eval(w, v) != w.ApplyVec(v) {
				t.Fatalf("ghost fault changed behaviour on %s", v)
			}
		}
	}
}

func TestBypassRemovesComparator(t *testing.T) {
	w := gen.Sorter(4)
	for i := 0; i < w.Size(); i++ {
		f := CompFault{Index: i, Mode: Bypass}
		// Equivalent network with comparator i deleted.
		reduced := network.New(4)
		for j, c := range w.Comps {
			if j != i {
				reduced.AddPair(c.A, c.B)
			}
		}
		it := bitvec.All(4)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if f.Eval(w, v) != reduced.ApplyVec(v) {
				t.Fatalf("bypass %d diverges from deleted-comparator network on %s", i, v)
			}
		}
	}
}

func TestReverseComparatorUnsorts(t *testing.T) {
	// A single reversed comparator in a 2-line sorter sends 01 and 10
	// to 10: visibly broken.
	w := network.New(2).AddPair(0, 1)
	f := CompFault{Index: 0, Mode: Reverse}
	if got := f.Eval(w, bitvec.MustFromString("01")); got.String() != "10" {
		t.Errorf("reverse on 01 = %s, want 10", got)
	}
	if got := f.Eval(w, bitvec.MustFromString("10")); got.String() != "10" {
		t.Errorf("reverse on 10 = %s, want 10", got)
	}
}

func TestAlwaysSwapExchangesUnconditionally(t *testing.T) {
	w := network.New(2).AddPair(0, 1)
	f := CompFault{Index: 0, Mode: AlwaysSwap}
	if got := f.Eval(w, bitvec.MustFromString("01")); got.String() != "10" {
		t.Errorf("always-swap on 01 = %s, want 10", got)
	}
}

func TestStuckLineClamps(t *testing.T) {
	w := gen.Sorter(4)
	f := StuckLine{Line: 2, Value: 1}
	it := bitvec.All(4)
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		if out := f.Eval(w, v); out.Bit(2) != 1 {
			t.Fatalf("stuck-at-1 line reads %d on input %s", out.Bit(2), v)
		}
	}
	f0 := StuckLine{Line: 0, Value: 0}
	for it = bitvec.All(4); ; {
		v, ok := it.Next()
		if !ok {
			break
		}
		if out := f0.Eval(w, v); out.Bit(0) != 0 {
			t.Fatalf("stuck-at-0 line reads %d on input %s", out.Bit(0), v)
		}
	}
}

func TestBridgeShortsLines(t *testing.T) {
	w := network.New(3) // empty: the short acts on inputs directly
	or := Bridge{A: 0, B: 1, Mode: WiredOR}
	if got := or.Eval(w, bitvec.MustFromString("010")); got.String() != "110" {
		t.Errorf("wired-OR on 010 = %s, want 110", got)
	}
	and := Bridge{A: 0, B: 1, Mode: WiredAND}
	if got := and.Eval(w, bitvec.MustFromString("010")); got.String() != "000" {
		t.Errorf("wired-AND on 010 = %s, want 000", got)
	}
}

func TestEnumerateCounts(t *testing.T) {
	w := gen.Sorter(5) // 9 comparators, 5 lines
	fs := Enumerate(w)
	want := 3*w.Size() + 2*w.N + 2*(w.N-1)
	if len(fs) != want {
		t.Errorf("enumerated %d faults, want %d", len(fs), want)
	}
	seen := map[string]bool{}
	for _, f := range fs {
		if seen[f.Describe()] {
			t.Errorf("duplicate fault %s", f.Describe())
		}
		seen[f.Describe()] = true
	}
}

func TestMinimalTestSetCatchesAllNetworkFaults(t *testing.T) {
	// The paper's guarantee, executed: any fault that leaves the
	// circuit a *standard network* (Bypass) and breaks sorting is
	// caught by the minimal test set — because the test set decides
	// sorter-ness for arbitrary networks.
	for n := 3; n <= 7; n++ {
		w := gen.Sorter(n)
		tests := func() bitvec.Iterator { return core.SorterBinaryTests(n) }
		var fs []Fault
		for i := 0; i < w.Size(); i++ {
			fs = append(fs, CompFault{Index: i, Mode: Bypass})
		}
		rep := Measure(w, fs, tests, ByProperty)
		if rep.Detected != rep.Detectable {
			t.Errorf("n=%d: minimal test set missed %d detectable bypass faults",
				n, rep.Detectable-rep.Detected)
		}
	}
}

func TestGoldenModeIsMoreSensitive(t *testing.T) {
	// Every property-detectable fault is golden-detectable (the
	// converse can fail: a fault may permute equal outputs invisibly).
	w := gen.Sorter(5)
	for _, f := range Enumerate(w) {
		it := bitvec.All(5)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if Detects(w, f, v, ByProperty) && !Detects(w, f, v, ByGolden) {
				t.Fatalf("fault %s: property-detected but not golden-detected on %s",
					f.Describe(), v)
			}
		}
	}
}

func TestUndetectableFaultExcluded(t *testing.T) {
	// A sorter with a duplicated final comparator: bypassing the
	// duplicate is functionally invisible and must not count against
	// coverage.
	w := gen.Sorter(4)
	last := w.Comps[len(w.Comps)-1]
	w = w.Clone().AddPair(last.A, last.B)
	dup := CompFault{Index: w.Size() - 1, Mode: Bypass}
	if Detectable(w, dup, ByProperty) {
		t.Error("bypassing a duplicated comparator should be undetectable by property")
	}
	rep := Measure(w, []Fault{dup}, func() bitvec.Iterator { return core.SorterBinaryTests(4) }, ByProperty)
	if rep.Detectable != 0 || rep.Coverage() != 1 {
		t.Errorf("undetectable fault mishandled: %+v", rep)
	}
}

func TestCoverageReportString(t *testing.T) {
	r := Report{Faults: 10, Detectable: 8, Detected: 6}
	if r.Coverage() != 0.75 {
		t.Errorf("coverage %f", r.Coverage())
	}
	if r.String() == "" {
		t.Error("empty string")
	}
}

func TestModeStrings(t *testing.T) {
	if Bypass.String() != "bypass" || AlwaysSwap.String() != "always-swap" ||
		Reverse.String() != "reverse" {
		t.Error("comp mode strings")
	}
	if WiredOR.String() != "wired-OR" || WiredAND.String() != "wired-AND" {
		t.Error("bridge mode strings")
	}
	if ByProperty.String() != "by-property" || ByGolden.String() != "by-golden" {
		t.Error("detect mode strings")
	}
	if CompMode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestMeasureOnRealSorterFullEnumeration(t *testing.T) {
	// End-to-end: full single-fault universe on the optimal 5-sorter,
	// measured with the minimal test set; coverage must be 100% of
	// detectable faults in golden mode too (the test set's outputs
	// differ whenever any input's outputs differ... not guaranteed in
	// general, so we only require property-mode completeness for
	// standard-network faults and report golden-mode as a measurement).
	w := gen.Sorter(5)
	tests := func() bitvec.Iterator { return core.SorterBinaryTests(5) }
	rep := Measure(w, Enumerate(w), tests, ByProperty)
	if rep.Detected > rep.Detectable || rep.Detectable > rep.Faults {
		t.Errorf("inconsistent report %+v", rep)
	}
	if rep.Coverage() < 0.5 {
		t.Errorf("suspiciously low coverage: %s", rep)
	}
}

func TestDetectabilityRefusesWideUniverse(t *testing.T) {
	// 2³¹ inputs: the pass panics up front, on the caller's
	// goroutine, instead of running for minutes.
	w := network.New(31).AddPair(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("a 31-line fault pass should panic")
		}
	}()
	Measure(w, Enumerate(w), func() bitvec.Iterator { return bitvec.All(31) }, ByProperty)
}

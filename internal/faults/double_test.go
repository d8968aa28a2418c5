package faults

import (
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

func TestDoubleCompMatchesSequentialSingleFaults(t *testing.T) {
	// When the two faulty comparators are far apart in the firing
	// order, applying DoubleComp must equal evaluating with both mode
	// overrides — cross-checked against a hand-rolled reference.
	w := gen.Sorter(5)
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 100; trial++ {
		i := rng.Intn(w.Size())
		j := rng.Intn(w.Size())
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		f := DoubleComp{
			First:  CompFault{Index: i, Mode: CompMode(rng.Intn(3))},
			Second: CompFault{Index: j, Mode: CompMode(rng.Intn(3))},
		}
		v := bitvec.New(5, rng.Uint64()&31)
		got := f.Eval(w, v)
		want := refDoubleEval(w, f, v)
		if got != want {
			t.Fatalf("double eval %s on %s: %s, want %s", f.Describe(), v, got, want)
		}
	}
}

// refDoubleEval is an independent scalar reference.
func refDoubleEval(w *network.Network, f DoubleComp, v bitvec.Vec) bitvec.Vec {
	vals := v.Ints()
	for i, c := range w.Comps {
		a, b := vals[c.A], vals[c.B]
		switch {
		case i == f.First.Index && f.First.Mode == Bypass,
			i == f.Second.Index && f.Second.Mode == Bypass:
			// no-op
		case i == f.First.Index && f.First.Mode == AlwaysSwap,
			i == f.Second.Index && f.Second.Mode == AlwaysSwap:
			vals[c.A], vals[c.B] = b, a
		case i == f.First.Index && f.First.Mode == Reverse,
			i == f.Second.Index && f.Second.Mode == Reverse:
			vals[c.A], vals[c.B] = max(a, b), min(a, b)
		default:
			vals[c.A], vals[c.B] = min(a, b), max(a, b)
		}
	}
	out, err := bitvec.FromBits(vals)
	if err != nil {
		panic(err)
	}
	return out
}

func TestEnumerateDoubleCompCounts(t *testing.T) {
	w := gen.Sorter(4) // 5 comparators
	all := EnumerateDoubleComp(w, 0, nil)
	want := 9 * 5 * 4 / 2
	if len(all) != want {
		t.Fatalf("enumerated %d, want %d", len(all), want)
	}
	rng := rand.New(rand.NewSource(82))
	sampled := EnumerateDoubleComp(w, 10, rng)
	if len(sampled) != 10 {
		t.Fatalf("sampled %d, want 10", len(sampled))
	}
}

func TestDoubleBypassOfSameComparatorTwiceMasks(t *testing.T) {
	// A sorter with a comparator duplicated: bypassing BOTH copies is
	// the same as bypassing a (redundant) pair — construct a case
	// where two individually-detectable faults mask each other:
	// AlwaysSwap on [1,2] followed by AlwaysSwap on a second [1,2]
	// swaps twice = no-op.
	w := network.New(2).AddPair(0, 1).AddPair(0, 1)
	f1 := CompFault{Index: 0, Mode: AlwaysSwap}
	f2 := CompFault{Index: 1, Mode: AlwaysSwap}
	pair := DoubleComp{First: f1, Second: f2}
	if !Detectable(w, f1, ByGolden) || !Detectable(w, f2, ByGolden) {
		t.Skip("components unexpectedly undetectable; masking premise gone")
	}
	if Detectable(w, pair, ByGolden) {
		t.Error("double always-swap on the same pair should fully mask")
	}
	rep := MeasureMasking(w, []Fault{pair}, ByGolden)
	if rep.BothDetectable != 1 || rep.PairUndetectable != 1 {
		t.Errorf("masking report %+v", rep)
	}
}

func TestMeasureMaskingOnRealSorter(t *testing.T) {
	w := gen.Sorter(5)
	rng := rand.New(rand.NewSource(83))
	pairs := EnumerateDoubleComp(w, 120, rng)
	rep := MeasureMasking(w, pairs, ByProperty)
	if rep.Pairs != 120 {
		t.Fatalf("examined %d pairs", rep.Pairs)
	}
	if rep.PairUndetectable > rep.BothDetectable {
		t.Errorf("inconsistent report %+v", rep)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestDoubleFaultCoverageWithMinimalTestSet(t *testing.T) {
	// Measure (not assert 100%): the minimal test set against sampled
	// double faults; the report must be internally consistent and
	// substantial.
	w := gen.Sorter(5)
	rng := rand.New(rand.NewSource(84))
	pairs := EnumerateDoubleComp(w, 150, rng)
	tests := func() bitvec.Iterator { return core.SorterBinaryTests(5) }
	rep := Measure(w, pairs, tests, ByProperty)
	if rep.Detected > rep.Detectable || rep.Detectable > rep.Faults {
		t.Errorf("inconsistent %+v", rep)
	}
	if rep.Coverage() < 0.5 {
		t.Errorf("suspiciously low double-fault coverage: %s", rep)
	}
}

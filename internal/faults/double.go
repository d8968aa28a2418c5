package faults

import (
	"context"
	"fmt"
	"math/rand"

	"sortnets/internal/bitvec"
	"sortnets/internal/eval"
	"sortnets/internal/network"
)

// Double comparator faults: two comparators misbehaving at once. The
// classical single-fault assumption of E12 is optimistic for real
// silicon; double faults exhibit *masking* — two defects whose
// misbehaviours cancel on the tested inputs — which is exactly what a
// minimal test set's guarantees do NOT cover, making the measurement
// interesting. Only comparator-mode pairs are modelled (stuck lines
// and bridges compose less cleanly with each other's clamp points).

// DoubleComp is a pair of comparator faults active simultaneously.
// The two indices must differ.
type DoubleComp struct {
	First, Second CompFault
}

// Describe implements Fault.
func (f DoubleComp) Describe() string {
	return fmt.Sprintf("%s + %s", f.First.Describe(), f.Second.Describe())
}

// AppendOps implements Fault: both comparator modes apply in one
// pass.
func (f DoubleComp) AppendOps(dst []eval.Op, w *network.Network) []eval.Op {
	for i, c := range w.Comps {
		kind := eval.OpCmp
		switch i {
		case f.First.Index:
			kind = opFor(f.First.Mode)
		case f.Second.Index:
			kind = opFor(f.Second.Mode)
		}
		dst = append(dst, eval.Op{Kind: kind, A: c.A, B: c.B})
	}
	return dst
}

// Eval implements Fault.
func (f DoubleComp) Eval(w *network.Network, v bitvec.Vec) bitvec.Vec {
	return Compile(w, f).Apply(v)
}

// EnumerateDoubleComp lists double comparator faults. With three modes
// per comparator the full universe is 9·C(s,2) pairs; max > 0 samples
// that many uniformly instead (for large networks).
func EnumerateDoubleComp(w *network.Network, max int, rng *rand.Rand) []Fault {
	modes := []CompMode{Bypass, AlwaysSwap, Reverse}
	s := w.Size()
	var all []Fault
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			for _, mi := range modes {
				for _, mj := range modes {
					all = append(all, DoubleComp{
						First:  CompFault{Index: i, Mode: mi},
						Second: CompFault{Index: j, Mode: mj},
					})
				}
			}
		}
	}
	if max <= 0 || len(all) <= max {
		return all
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	return all[:max]
}

// MaskingReport quantifies fault masking: pairs where each component
// fault is detectable alone but the pair is not (their misbehaviours
// cancel on every input).
type MaskingReport struct {
	Pairs            int // pairs examined
	BothDetectable   int // pairs whose components are each detectable alone
	PairUndetectable int // of those, pairs undetectable together (masked)
}

// String renders the masking summary.
func (r MaskingReport) String() string {
	return fmt.Sprintf("%d pairs, %d with both components detectable, %d fully masked",
		r.Pairs, r.BothDetectable, r.PairUndetectable)
}

// MeasureMasking examines double-comparator faults for masking under
// the given detection mode: every pair and both its components
// compile into one op arena and are judged for detectability in one
// shared 2ⁿ universe pass per chunk on the shared worker pool.
// Entries of pairs that are not DoubleComp are counted but not
// examined.
func MeasureMasking(w *network.Network, pairs []Fault, mode DetectMode) MaskingReport {
	// Per double fault: its two components, then the pair itself.
	var fs []Fault
	for _, f := range pairs {
		if d, ok := f.(DoubleComp); ok {
			fs = append(fs, d.First, d.Second, d)
		}
	}
	det, _ := detectability(context.Background(), w, eval.Compile(w), fs, mode)
	rep := MaskingReport{Pairs: len(pairs)}
	for i := 0; i < len(fs); i += 3 {
		if det[i] && det[i+1] {
			rep.BothDetectable++
			if !det[i+2] {
				rep.PairUndetectable++
			}
		}
	}
	return rep
}

package faults

import (
	"context"
	"fmt"

	"sortnets/internal/bitvec"
	"sortnets/internal/eval"
	"sortnets/internal/network"
)

// Detection semantics. A test τ *detects* a fault in a circuit under
// test in one of two senses:
//
//   - ByProperty: the faulty output on τ is visibly wrong for the
//     property being certified (for a sorter: not sorted). This is the
//     observation model of the paper — the tester sees outputs only
//     and judges them against the property.
//   - ByGolden: the faulty output differs from the fault-free output.
//     This is the classical stuck-at testing model with a golden
//     reference, strictly more sensitive than ByProperty.
type DetectMode int

// Detection modes.
const (
	ByProperty DetectMode = iota
	ByGolden
)

func (m DetectMode) String() string {
	if m == ByProperty {
		return "by-property"
	}
	return "by-golden"
}

// Detector is the compiled form of one (circuit, fault, mode)
// triple: the faulty program, the golden program when the mode needs
// it, and the detection judge — built once, then run over any number
// of test streams on the word-parallel block engine. A Detector is
// not safe for concurrent use (it owns a scratch batch); build one
// per goroutine.
type Detector struct {
	prog    *eval.Program
	judge   eval.Judge
	scratch network.Batch // ByGolden: golden outputs, recomputed per block
}

// NewDetector compiles the faulty circuit and its detection judge.
// golden must be the compiled healthy circuit (eval.Compile(w)); it
// is only consulted in ByGolden mode and may be shared between
// detectors (programs are immutable).
func NewDetector(w *network.Network, golden *eval.Program, f Fault, mode DetectMode) *Detector {
	d := &Detector{prog: Compile(w, f)}
	if mode == ByGolden {
		d.judge = eval.Judge{
			NeedsInput: true,
			Rejects: func(in, out *network.Batch, bad []uint64) {
				s := &d.scratch
				s.N, s.W, s.Lanes = in.N, in.W, in.Lanes
				s.Lines = append(s.Lines[:0], in.Lines...)
				golden.ApplyBatch(s)
				clear(bad)
				for i := 0; i < len(s.Lines); i += s.W {
					for g := range bad {
						bad[g] |= s.Lines[i+g] ^ out.Lines[i+g]
					}
				}
			},
		}
	} else {
		d.judge = eval.SortedJudge()
	}
	return d
}

// Detects reports whether the single test vector τ detects the fault.
func (d *Detector) Detects(tau bitvec.Vec) bool {
	return !eval.New(d.prog, 1).Run(bitvec.Slice([]bitvec.Vec{tau}), d.judge).Holds
}

// DetectedBy reports whether any vector of the stream detects the
// fault, in word-parallel blocks.
func (d *Detector) DetectedBy(it bitvec.Iterator) bool {
	return !eval.New(d.prog, 1).Run(it, d.judge).Holds
}

// DetectedByCtx is DetectedBy under a context.
func (d *Detector) DetectedByCtx(ctx context.Context, it bitvec.Iterator) (bool, error) {
	v, err := eval.New(d.prog, 1).RunCtx(ctx, it, d.judge)
	if err != nil {
		return false, err
	}
	return !v.Holds, nil
}

// Detectable reports whether any binary input at all detects the
// fault, sweeping the 2ⁿ universe with wholesale lane loading.
func (d *Detector) Detectable() bool {
	return !eval.New(d.prog, 1).RunUniverse(d.judge).Holds
}

// DetectableCtx is Detectable under a context.
func (d *Detector) DetectableCtx(ctx context.Context) (bool, error) {
	v, err := eval.New(d.prog, 1).RunUniverseCtx(ctx, d.judge)
	if err != nil {
		return false, err
	}
	return !v.Holds, nil
}

// Detects reports whether the test vector τ detects fault f on w.
// One-shot convenience; loops should build a Detector (or call
// Measure) so the fault compiles once.
func Detects(w *network.Network, f Fault, tau bitvec.Vec, mode DetectMode) bool {
	return NewDetector(w, eval.Compile(w), f, mode).Detects(tau)
}

// Detectable reports whether any binary input at all detects the fault
// — faults that are undetectable are functionally benign (e.g. a
// bypassed redundant comparator) and excluded from coverage
// denominators.
func Detectable(w *network.Network, f Fault, mode DetectMode) bool {
	return NewDetector(w, eval.Compile(w), f, mode).Detectable()
}

// Report aggregates a fault-coverage measurement.
type Report struct {
	Faults     int // faults injected
	Detectable int // faults some input could expose
	Detected   int // faults the given test set exposed
}

// Coverage returns Detected/Detectable as a fraction in [0,1], or 1
// when nothing is detectable.
func (r Report) Coverage() float64 {
	if r.Detectable == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.Detectable)
}

// String renders "detected/detectable (coverage%)".
func (r Report) String() string {
	return fmt.Sprintf("%d/%d detectable faults caught (%.1f%%)",
		r.Detected, r.Detectable, 100*r.Coverage())
}

// Measure injects every fault in fs into w and checks which ones the
// test set exposes. Each fault compiles once to a program variant and
// is judged on the batch engine; the faults themselves are spread
// over the shared worker pool. tests is re-created per fault via the
// factory so streamed iterators can be replayed — the factory must be
// safe for concurrent calls (all the package core test-set factories
// are: each call returns a fresh iterator).
func Measure(w *network.Network, fs []Fault, tests func() bitvec.Iterator, mode DetectMode) Report {
	rep, _ := MeasureCtx(context.Background(), w, eval.Compile(w), fs, tests, mode)
	return rep
}

// MeasureCtx is Measure under a context, with a caller-supplied
// compiled healthy program — the cache-aware entry point: a caller
// holding w's program already (the Session keeps one per canonical
// digest) skips the recompilation. golden must be eval.Compile(w)
// (programs are immutable, so sharing one across calls and goroutines
// is safe). The fault sweep stops claiming new faults once the context
// is cancelled, each per-fault engine pass checks it per block, and a
// cancelled run returns the context's error with a zero report.
func MeasureCtx(ctx context.Context, w *network.Network, golden *eval.Program, fs []Fault, tests func() bitvec.Iterator, mode DetectMode) (Report, error) {
	type outcome struct{ detectable, detected bool }
	outcomes := make([]outcome, len(fs))
	err := eval.ForEachCtx(ctx, len(fs), 0, func(i int) {
		d := NewDetector(w, golden, fs[i], mode)
		detectable, err := d.DetectableCtx(ctx)
		if err != nil || !detectable {
			return
		}
		outcomes[i].detectable = true
		outcomes[i].detected, _ = d.DetectedByCtx(ctx, tests())
	})
	if err != nil {
		return Report{}, err
	}
	rep := Report{Faults: len(fs)}
	for _, o := range outcomes {
		if o.detectable {
			rep.Detectable++
		}
		if o.detected {
			rep.Detected++
		}
	}
	return rep, nil
}

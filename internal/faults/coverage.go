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

// judgeFor returns the fault pass's detection judge for mode: the
// sorted-output judge for ByProperty; for ByGolden, a judge that
// rejects the lanes whose faulty outputs differ from the healthy
// circuit's, which the pass hands it as its in batch.
func judgeFor(mode DetectMode) eval.Judge {
	if mode != ByGolden {
		return eval.SortedJudge()
	}
	return eval.Judge{Rejects: func(healthy, out *network.Batch, bad []uint64) {
		clear(bad)
		for i := 0; i < len(out.Lines); i += out.W {
			for g := range bad {
				bad[g] |= healthy.Lines[i+g] ^ out.Lines[i+g]
			}
		}
	}}
}

// chunk is one worker's share of a fault pass: the contiguous faults
// lo, lo+1, …, hi-1 of the list, judged by judge.
type chunk struct {
	set    *eval.FaultSet
	lo, hi int
	judge  eval.Judge
}

// forChunks reports the edits of fs into one fault set and runs fn on
// at most GOMAXPROCS contiguous, non-empty chunks of it on the shared
// worker pool. A cancelled context stops the pass and returns
// ctx.Err(); fn's partial results must then be discarded. Every pass
// sweeps the 2ⁿ universe, so like eval's RunUniverse it refuses n >
// 30 — here, on the caller's goroutine rather than a pool worker's.
func forChunks(ctx context.Context, w *network.Network, fs []Fault, mode DetectMode, fn func(c chunk)) error {
	if w.N > 30 {
		panic(fmt.Sprintf("faults: detectability sweeps 2^%d inputs; n is too wide", w.N))
	}
	set, judge := faultSet(w, fs), judgeFor(mode)
	chunks := min(eval.Workers(0), len(fs))
	return eval.ForEachCtx(ctx, chunks, chunks, func(i int) {
		fn(chunk{set: set, lo: i * len(fs) / chunks, hi: (i + 1) * len(fs) / chunks, judge: judge})
	})
}

// detectable judges the chunk's faults against the whole 2ⁿ binary
// universe in one fault pass and returns the indices into the fault
// list of those some input detects, in the order the pass found them.
func (c chunk) detectable(ctx context.Context) ([]int, error) {
	idx := make([]int, c.hi-c.lo)
	for i := range idx {
		idx[i] = c.lo + i
	}
	// The pass reads idx once, before its first block, so the
	// detected faults may overwrite it.
	det := idx[:0]
	err := c.set.RunCtx(ctx, idx, bitvec.All(c.set.N()), c.judge, func(f, _ int, _ []uint64) bool {
		det = append(det, f)
		return true
	})
	if err != nil {
		return nil, err
	}
	return det, nil
}

// detectability reports, per fault of fs, whether any binary input
// at all detects it.
func detectability(ctx context.Context, w *network.Network, fs []Fault, mode DetectMode) ([]bool, error) {
	det := make([]bool, len(fs))
	err := forChunks(ctx, w, fs, mode, func(c chunk) {
		idx, _ := c.detectable(ctx) // on cancellation forChunks returns the error
		for _, f := range idx {
			det[f] = true
		}
	})
	return det, err
}

// Detects reports whether the test vector τ detects fault f on w.
func Detects(w *network.Network, f Fault, tau bitvec.Vec, mode DetectMode) bool {
	detected := false
	// A background pass over one vector cannot be cancelled.
	_ = faultSet(w, []Fault{f}).RunCtx(context.Background(), []int{0}, bitvec.Slice([]bitvec.Vec{tau}), judgeFor(mode), func(int, int, []uint64) bool {
		detected = true
		return true
	})
	return detected
}

// Detectable reports whether any binary input at all detects the fault
// — faults that are undetectable are functionally benign (e.g. a
// bypassed redundant comparator) and excluded from coverage
// denominators.
func Detectable(w *network.Network, f Fault, mode DetectMode) bool {
	det, _ := detectability(context.Background(), w, []Fault{f}, mode)
	return det[0]
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
// test set exposes. The faults report their edits into one fault set,
// split into at most GOMAXPROCS contiguous chunks on the shared worker
// pool; each chunk runs the fault pass twice, first over the 2ⁿ
// universe (which faults are detectable at all), then over the test
// stream (which of those the tests detect), and drops each fault at
// its first detecting block. tests is called once per chunk, so the
// factory must be safe for concurrent calls (all the package core
// test-set factories are: each call returns a fresh iterator).
func Measure(w *network.Network, fs []Fault, tests func() bitvec.Iterator, mode DetectMode) Report {
	rep, _ := MeasureCtx(context.Background(), w, nil, fs, tests, mode)
	return rep
}

// MeasureCtx is Measure under a context. golden is unused and may be
// nil: the fault pass runs the healthy circuit itself, and ByGolden
// compares each fault's outputs with that run's. Every pass checks the
// context once per block, and a cancelled run returns the context's
// error with a zero report.
func MeasureCtx(ctx context.Context, w *network.Network, golden *eval.Program, fs []Fault, tests func() bitvec.Iterator, mode DetectMode) (Report, error) {
	detectable := make([]bool, len(fs))
	detected := make([]bool, len(fs))
	err := forChunks(ctx, w, fs, mode, func(c chunk) {
		idx, err := c.detectable(ctx)
		if err != nil || len(idx) == 0 {
			return
		}
		for _, f := range idx {
			detectable[f] = true
		}
		// On cancellation forChunks returns the error.
		_ = c.set.RunCtx(ctx, idx, tests(), c.judge, func(f, _ int, _ []uint64) bool {
			detected[f] = true
			return true
		})
	})
	if err != nil {
		return Report{}, err
	}
	rep := Report{Faults: len(fs)}
	for f := range fs {
		if detectable[f] {
			rep.Detectable++
		}
		if detected[f] {
			rep.Detected++
		}
	}
	return rep, nil
}

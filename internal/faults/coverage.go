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

// judgeFor returns the detection judge of mode: the sorted-output
// judge for ByProperty; for ByGolden, a judge that recomputes each
// block's fault-free outputs through golden (eval.Compile(w)) and
// rejects the lanes whose faulty outputs differ. A ByGolden judge
// owns a scratch batch, so each goroutine needs its own.
func judgeFor(golden *eval.Program, mode DetectMode) eval.Judge {
	if mode != ByGolden {
		return eval.SortedJudge()
	}
	var s network.Batch // golden outputs, recomputed per block
	return eval.Judge{
		NeedsInput: true,
		Rejects: func(in, out *network.Batch, bad []uint64) {
			s.N, s.W, s.Lanes = in.N, in.W, in.Lanes
			s.Lines = append(s.Lines[:0], in.Lines...)
			golden.ApplyBatch(&s)
			clear(bad)
			for i := 0; i < len(s.Lines); i += s.W {
				for g := range bad {
					bad[g] |= s.Lines[i+g] ^ out.Lines[i+g]
				}
			}
		},
	}
}

// chunk is one worker's share of a fault pass: the programs of the
// contiguous faults lo, lo+1, … of the list, and a detection judge of
// its own.
type chunk struct {
	lo    int
	progs []*eval.Program
	judge eval.Judge
}

// forChunks compiles fs into one op arena and runs fn on at most
// GOMAXPROCS contiguous, non-empty chunks of it on the shared worker
// pool. A cancelled context stops the pass and returns ctx.Err(); fn's
// partial results must then be discarded. Every pass sweeps the 2ⁿ
// universe, so like eval's RunUniverse it refuses n > 30 — here, on
// the caller's goroutine rather than a pool worker's.
func forChunks(ctx context.Context, w *network.Network, golden *eval.Program, fs []Fault, mode DetectMode, fn func(c chunk)) error {
	if w.N > 30 {
		panic(fmt.Sprintf("faults: detectability sweeps 2^%d inputs; n is too wide", w.N))
	}
	progs := compileAll(w, fs)
	chunks := min(eval.Workers(0), len(fs))
	return eval.ForEachCtx(ctx, chunks, chunks, func(i int) {
		lo, hi := i*len(fs)/chunks, (i+1)*len(fs)/chunks
		fn(chunk{lo: lo, progs: progs[lo:hi], judge: judgeFor(golden, mode)})
	})
}

// detectable judges the chunk's programs against the whole 2ⁿ binary
// universe, in one pass that loads each block once for all of them,
// and returns the faults some input detects: their indices into the
// fault list and their programs.
func (c chunk) detectable(ctx context.Context) ([]int, []*eval.Program, error) {
	vs, err := eval.RunManyCtx(ctx, c.progs, bitvec.All(c.progs[0].N()), c.judge)
	if err != nil {
		return nil, nil, err
	}
	idx := make([]int, 0, len(vs))
	progs := make([]*eval.Program, 0, len(vs))
	for i, v := range vs {
		if !v.Holds {
			idx = append(idx, c.lo+i)
			progs = append(progs, c.progs[i])
		}
	}
	return idx, progs, nil
}

// detectability reports, per fault of fs, whether any binary input
// at all detects it.
func detectability(ctx context.Context, w *network.Network, golden *eval.Program, fs []Fault, mode DetectMode) ([]bool, error) {
	det := make([]bool, len(fs))
	err := forChunks(ctx, w, golden, fs, mode, func(c chunk) {
		idx, _, _ := c.detectable(ctx) // on cancellation forChunks returns the error
		for _, f := range idx {
			det[f] = true
		}
	})
	return det, err
}

// Detects reports whether the test vector τ detects fault f on w.
func Detects(w *network.Network, f Fault, tau bitvec.Vec, mode DetectMode) bool {
	vs := eval.RunMany([]*eval.Program{Compile(w, f)}, bitvec.Slice([]bitvec.Vec{tau}), judgeFor(eval.Compile(w), mode))
	return !vs[0].Holds
}

// Detectable reports whether any binary input at all detects the fault
// — faults that are undetectable are functionally benign (e.g. a
// bypassed redundant comparator) and excluded from coverage
// denominators.
func Detectable(w *network.Network, f Fault, mode DetectMode) bool {
	det, _ := detectability(context.Background(), w, eval.Compile(w), []Fault{f}, mode)
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
// test set exposes. The faults compile into one op arena, split into
// at most GOMAXPROCS contiguous chunks on the shared worker pool; each
// chunk judges all its variants against one load of each block, first
// of the 2ⁿ universe (which faults are detectable at all), then of
// the test stream (which of those the tests detect). tests is called
// once per chunk, so the factory must be safe for concurrent calls
// (all the package core test-set factories are: each call returns a
// fresh iterator).
func Measure(w *network.Network, fs []Fault, tests func() bitvec.Iterator, mode DetectMode) Report {
	rep, _ := MeasureCtx(context.Background(), w, eval.Compile(w), fs, tests, mode)
	return rep
}

// MeasureCtx is Measure under a context, with a caller-supplied
// compiled healthy program — the cache-aware entry point: a caller
// holding w's program already (the Session keeps one per canonical
// digest) skips the recompilation. golden must be eval.Compile(w)
// (programs are immutable, so sharing one across calls and goroutines
// is safe). Every shared pass checks the context once per block, and
// a cancelled run returns the context's error with a zero report.
func MeasureCtx(ctx context.Context, w *network.Network, golden *eval.Program, fs []Fault, tests func() bitvec.Iterator, mode DetectMode) (Report, error) {
	detectable := make([]bool, len(fs))
	detected := make([]bool, len(fs))
	err := forChunks(ctx, w, golden, fs, mode, func(c chunk) {
		idx, progs, err := c.detectable(ctx)
		if err != nil || len(idx) == 0 {
			return
		}
		vs, err := eval.RunManyCtx(ctx, progs, tests(), c.judge)
		if err != nil {
			return
		}
		for j, f := range idx {
			detectable[f] = true
			detected[f] = !vs[j].Holds
		}
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

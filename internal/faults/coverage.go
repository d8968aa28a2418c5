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

// chunkWork is the fault-pass work per chunk, counted as faults ×
// comparators × blocks of the 2ⁿ universe: a pass takes a second chunk,
// with its own goroutine and its own run of the healthy circuit, at
// twice this work. Measured at GOMAXPROCS=2 on an idle 2-core box, a
// detection matrix of a random network ran 21% slower on two chunks
// than on one at a work of 2,808 (an 8-line, 26-comparator request of
// 108 faults and one block), even at 14,208 and 17% faster at 52,992.
const chunkWork = 1 << 14

// chunkCount is the number of chunks a fault pass over faults faults
// on w runs on: one per chunkWork of its work, at least one, and at
// most GOMAXPROCS and the fault count.
func chunkCount(w *network.Network, faults int) int {
	blocks := (bitvec.Universe(w.N) + eval.KernelLanes() - 1) / eval.KernelLanes()
	work := faults * len(w.Comps) * blocks
	return min(eval.Workers(0), faults, max(1, work/chunkWork))
}

// chunk is one worker's share of a fault pass: the contiguous faults
// lo, lo+1, …, hi-1 of the list, judged by judge.
type chunk struct {
	set    *eval.FaultSet
	lo, hi int
	judge  eval.Judge
}

// forChunks reports the edits of fs into one fault set and runs fn on
// chunkCount contiguous, non-empty chunks of it, each on a goroutine of
// its own when there are several and on the caller's when there is
// one. A cancelled context stops the pass and returns ctx.Err(); fn's
// partial results must then be discarded. Every pass sweeps the 2ⁿ
// universe, so like eval's RunUniverse it refuses n > 30 — here, on
// the caller's goroutine rather than a worker's.
func forChunks(ctx context.Context, w *network.Network, fs []Fault, mode DetectMode, fn func(c chunk)) error {
	if w.N > 30 {
		panic(fmt.Sprintf("faults: detectability sweeps 2^%d inputs; n is too wide", w.N))
	}
	set, judge := faultSet(w, fs), judgeFor(mode)
	chunks := chunkCount(w, len(fs))
	return eval.ForEachCtx(ctx, chunks, chunks, func(i int) {
		fn(chunk{set: set, lo: i * len(fs) / chunks, hi: (i + 1) * len(fs) / chunks, judge: judge})
	})
}

// pass judges the chunk's faults on the binary universe and on tests.
// It sets det[f] for each fault some binary input detects, and calls
// hit for each fault and block in which a test detects it, with the
// index of the block's first test, the block's rejected lanes that
// are tests, and its lanes that are not tests (holes, nil for none),
// valid only during the call: a test lane j is test first+j minus the
// holes below j (see orTests). When hit returns true the fault leaves
// the pass. When the tests are a span of the whole universe, as a
// sorter's are, one pass over the universe judges each block once:
// every lane counts for detectability, and the lanes outside the
// span's holes are the tests. Otherwise a pass over the universe comes
// first, and only the faults it finds detectable go on to a pass over
// tests. A span of tests is only read, never advanced.
func (c chunk) pass(ctx context.Context, tests bitvec.Iterator, det []bool, hit func(f, first int, lanes, holes []uint64) bool) error {
	n := c.set.N()
	idx := make([]int, c.hi-c.lo)
	for i := range idx {
		idx[i] = c.lo + i
	}
	span := universeSpan(tests, n)
	if span == nil {
		// The pass reads idx once, before its first block, so the
		// detectable faults may overwrite it.
		found := idx[:0]
		err := c.set.RunCtx(ctx, idx, bitvec.All(n), c.judge, func(f, _ int, _ []uint64) bool {
			det[f] = true
			found = append(found, f)
			return true
		})
		if err != nil {
			return err
		}
		idx = found
	} else {
		tests = bitvec.All(n)
	}
	b := spanBlock{span: span, n: n, base: -1}
	return c.set.RunCtx(ctx, idx, tests, c.judge, func(f, lanes int, bad []uint64) bool {
		if span == nil {
			return hit(f, lanes, bad, nil)
		}
		det[f] = true
		holes := b.holesAt(lanes)
		stream, rejected := b.lanes[:len(bad)], uint64(0)
		for g, x := range bad {
			stream[g] = x &^ holes[g]
			rejected |= stream[g]
		}
		return rejected != 0 && hit(f, b.first, stream, holes[:len(bad)])
	})
}

// universeSpan returns it as a span when it is a span of the whole
// n-line universe, sorted words dropped or not, and nil otherwise.
func universeSpan(it bitvec.Iterator, n int) *bitvec.Span {
	span, ok := it.(*bitvec.Span)
	if !ok {
		return nil
	}
	if next, to := span.Words(); next != 0 || to != uint64(bitvec.Universe(n)) {
		return nil
	}
	return span
}

// spanBlock describes the pass block at universe word base when the
// pass runs over the universe in place of a span of n-line tests: its
// holes, the words that are not tests, and first, the tests before it.
type spanBlock struct {
	span  *bitvec.Span
	n     int
	base  int // the block holes and first describe, -1 for none
	first int
	holes []uint64
	lanes []uint64 // scratch for a block's rejected test lanes
}

// holesAt moves b to the block at universe word base and returns its
// holes.
func (b *spanBlock) holesAt(base int) []uint64 {
	if b.base != base {
		if b.holes == nil {
			words := make([]uint64, 2*eval.KernelLanes()/64)
			b.holes, b.lanes = words[:len(words)/2], words[len(words)/2:]
		}
		b.span.Holes(uint64(base), min(eval.KernelLanes(), bitvec.Universe(b.n)-base), b.holes)
		before := b.span.Sub(0, uint64(base))
		b.base, b.first = base, before.Len()
	}
	return b.holes
}

// detectability reports, per fault of fs, whether any binary input
// at all detects it.
func detectability(ctx context.Context, w *network.Network, fs []Fault, mode DetectMode) ([]bool, error) {
	det := make([]bool, len(fs))
	err := forChunks(ctx, w, fs, mode, func(c chunk) {
		// On cancellation forChunks returns the error.
		_ = c.pass(ctx, bitvec.All(w.N), det, func(int, int, []uint64, []uint64) bool { return true })
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
// and each chunk of it (see forChunks) runs the fault pass: one pass
// over the 2ⁿ universe when the tests are a span of it, as a sorter's
// are, else a pass over the universe (which faults are detectable at
// all) and then one over the test stream (which of those the tests
// detect). A fault leaves the pass at its first detecting block.
// tests is called once per chunk, so the factory must be safe for
// concurrent calls (all the package core test-set factories are: each
// call returns a fresh iterator).
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
		// On cancellation forChunks returns the error.
		_ = c.pass(ctx, tests(), detectable, func(f, _ int, _, _ []uint64) bool {
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

package faults

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"sortnets/internal/bitset"
	"sortnets/internal/bitvec"
	"sortnets/internal/eval"
	"sortnets/internal/network"
	"sortnets/internal/search"
)

// Matrix is the full test × fault detection table for one circuit
// under one detection mode: Sigs[t] is the fault signature of test t —
// the set of fault indices that test exposes. It is built by the fault
// pass of each chunk of the fault list (see forChunks), with no early
// exit and every verdict bit kept, each loading every block once for
// all the chunk's faults — so test-set *selection* for stuck-at
// coverage runs on the same block engine and kernels as test-set
// verification. The per-fault rows and the per-test signatures are
// views over two slabs of words: the pass ORs each block's detecting
// tests into its row, and the signatures are the rows' word-level
// transpose.
type Matrix struct {
	Tests      []bitvec.Vec  // the materialized test stream, in order
	Faults     []Fault       // the injected fault universe
	Sigs       []*bitset.Set // per test: detected fault indices
	Detectable *bitset.Set   // faults some binary input could expose
	Mode       DetectMode
	rows       []*bitset.Set // per fault: the tests exposing it; nil if undetectable
}

// DetectionMatrix injects every fault in fs into w and records, for
// each test in the stream, exactly which faults it detects. Faults no
// input at all can expose are excluded from signatures (they are
// functionally benign and would poison coverage denominators). Unlike
// Measure, the factory is consumed exactly once, up front — the
// collected vectors, or the span they came from, are swept once per
// chunk of the fault list — so it need not be safe for concurrent
// calls.
func DetectionMatrix(w *network.Network, fs []Fault, tests func() bitvec.Iterator, mode DetectMode) *Matrix {
	m, _ := DetectionMatrixCtx(context.Background(), w, nil, fs, tests, mode)
	return m
}

// DetectionMatrixCtx is DetectionMatrix under a context. golden is
// unused and may be nil (see MeasureCtx). The passes check the context
// once per block, and a cancelled run returns the context's error with
// a nil matrix.
func DetectionMatrixCtx(ctx context.Context, w *network.Network, golden *eval.Program, fs []Fault, tests func() bitvec.Iterator, mode DetectMode) (*Matrix, error) {
	it := tests()
	var span *bitvec.Span // the tests, when they are a span of the universe
	if s := universeSpan(it, w.N); s != nil {
		copied := *s
		span = &copied
	}
	vecs := bitvec.Collect(it)
	// One row (bitset over tests) per fault, all over one slab that
	// the chunks fill concurrently, each its own faults' rows; rows of
	// undetectable faults stay nil.
	all, rowWords := bitset.NewSlab(len(fs), len(vecs))
	rw := (len(vecs) + 63) / 64 // words per row
	det := make([]bool, len(fs))
	err := forChunks(ctx, w, fs, mode, func(c chunk) {
		var chunkTests bitvec.Iterator = span
		if span == nil {
			chunkTests = bitvec.Slice(vecs)
		}
		// A cancelled pass leaves its rows partial; forChunks then
		// returns the context's error and the rows are dropped.
		_ = c.pass(ctx, chunkTests, det, func(f, first int, lanes, holes []uint64) bool {
			orTests(rowWords[f*rw:(f+1)*rw], first, lanes, holes)
			return false
		})
	})
	if err != nil {
		return nil, err
	}
	sigs, sigWords := bitset.NewSlab(len(vecs), len(fs))
	m := &Matrix{
		Tests:      vecs,
		Faults:     fs,
		Sigs:       sigs,
		Detectable: bitset.New(len(fs)),
		Mode:       mode,
		rows:       make([]*bitset.Set, len(fs)),
	}
	for f, d := range det {
		if d {
			m.Detectable.Add(f)
			m.rows[f] = all[f]
		}
	}
	// The signatures are the rows' transpose. Undetectable faults'
	// rows were never written, so they are zero.
	eval.TransposeRows(sigWords, rowWords, len(fs), len(vecs))
	return m, nil
}

// orTests ORs a pass block's detecting tests into row: lanes are the
// block's rejected lanes that are tests and holes its lanes that are
// not (nil for none), so test lane j is test first+j minus the holes
// below j. The lanes are compacted past the holes, a hole at a time
// from the top down so the lower lanes keep their places.
func orTests(row []uint64, first int, lanes, holes []uint64) {
	at := first
	for g, x := range lanes {
		var h uint64
		if holes != nil {
			h = holes[g]
		}
		if x != 0 {
			for r := h; r != 0; {
				top := 63 - bits.LeadingZeros64(r)
				x = x&(1<<top-1) | x>>(top+1)<<top
				r &^= 1 << top
			}
			i, s := at>>6, uint(at&63)
			row[i] |= x << s
			if s != 0 && i+1 < len(row) {
				row[i+1] |= x >> (64 - s)
			}
		}
		at += 64 - bits.OnesCount64(h)
	}
}

// Detected returns the set of faults at least one test exposes.
func (m *Matrix) Detected() *bitset.Set {
	out := bitset.New(len(m.Faults))
	for _, sig := range m.Sigs {
		out.UnionWith(sig)
	}
	return out
}

// Report aggregates the matrix into the same shape Measure produces;
// the two must agree (asserted in the tests).
func (m *Matrix) Report() Report {
	return Report{
		Faults:     len(m.Faults),
		Detectable: m.Detectable.Count(),
		Detected:   m.Detected().Count(),
	}
}

// MinimalDetectingSet greedily selects a small subset of the tests
// that still detects every fault the full stream detects: repeatedly
// the test whose signature covers the most still-undetected faults,
// ties broken to the LOWEST test index (deterministic run-to-run).
// The returned indices (into Tests) are sorted ascending. The greedy
// bound is ln(faults)-optimal; exact minima for small instances can
// be had by handing the signatures to the search package's hitting-set
// solver.
func (m *Matrix) MinimalDetectingSet() []int {
	remaining := m.Detected()
	var picks []int
	for !remaining.Empty() {
		bestT, bestC := -1, 0
		for t, sig := range m.Sigs {
			if c := sig.CountAnd(remaining); c > bestC {
				bestT, bestC = t, c
			}
		}
		if bestT < 0 {
			panic("faults: detection matrix inconsistent with its own union")
		}
		picks = append(picks, bestT)
		remaining.DiffWith(m.Sigs[bestT])
	}
	// Greedy picks in coverage order; report in test-stream order.
	slices.Sort(picks)
	return picks
}

// ExactMinimalDetectingSetCtx computes an exact minimum subset of the
// tests that still detects every fault the full stream detects, by
// handing the matrix's per-fault rows (per detected fault, the set of
// tests exposing it) to the search package's hitting-set branch and
// bound.
// nodeBudget caps the solve (≤ 0 = unlimited); if it is exhausted
// before the search closes, it returns (nil, false, nil) and callers
// should fall back to the greedy MinimalDetectingSet. workers ≤ 0
// means GOMAXPROCS; the minimum cardinality is worker-count-
// independent, but the identity of an equal-size witness is only
// deterministic with workers == 1. The branch and bound observes
// cancellation and a cancelled run returns the context's error. The
// returned indices (into Tests) are sorted ascending.
func (m *Matrix) ExactMinimalDetectingSetCtx(ctx context.Context, nodeBudget, workers int) ([]int, bool, error) {
	fams := make([]*bitset.Set, 0, len(m.rows))
	for _, row := range m.rows {
		if row != nil && !row.Empty() {
			fams = append(fams, row)
		}
	}
	if len(fams) == 0 {
		return []int{}, true, nil
	}
	res, err := search.MinHittingSetBitsCtx(ctx, len(m.Tests), fams, nodeBudget, workers)
	if err != nil {
		return nil, false, err
	}
	if !res.Exact {
		return nil, false, nil
	}
	picks := make([]int, 0, res.Size)
	res.Elements.ForEach(func(t int) bool {
		picks = append(picks, t)
		return true
	})
	return picks, true, nil
}

// String renders a one-line summary.
func (m *Matrix) String() string {
	return fmt.Sprintf("%d tests × %d faults (%s): %d detectable, %d detected",
		len(m.Tests), len(m.Faults), m.Mode, m.Detectable.Count(), m.Detected().Count())
}

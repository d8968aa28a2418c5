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
// the set of fault indices that test exposes. It is built in one
// multi-program sweep per chunk of the fault list (no early exit,
// every verdict bit kept), each loading every test block once for all
// the chunk's fault variants, with the chunks spread over the shared
// worker pool — so test-set *selection* for stuck-at coverage runs on
// exactly the same compiled-program machinery as test-set
// verification.
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
// collected vectors are swept once per chunk of the fault list — so
// it need not be safe for concurrent calls.
func DetectionMatrix(w *network.Network, fs []Fault, tests func() bitvec.Iterator, mode DetectMode) *Matrix {
	m, _ := DetectionMatrixCtx(context.Background(), w, eval.Compile(w), fs, tests, mode)
	return m
}

// DetectionMatrixCtx is DetectionMatrix under a context, with a
// caller-supplied compiled healthy program (see MeasureCtx): the
// shared passes check the context once per block and a cancelled run
// returns the context's error with a nil matrix.
func DetectionMatrixCtx(ctx context.Context, w *network.Network, golden *eval.Program, fs []Fault, tests func() bitvec.Iterator, mode DetectMode) (*Matrix, error) {
	vecs := bitvec.Collect(tests())
	// One row (bitset over tests) per detectable fault, built by the
	// chunks concurrently; the row-to-column transpose into per-test
	// signatures is sequential and cheap.
	rows := make([]*bitset.Set, len(fs))
	err := forChunks(ctx, w, golden, fs, mode, func(c chunk) {
		idx, progs, err := c.detectable(ctx)
		if err != nil || len(idx) == 0 {
			return
		}
		for _, f := range idx {
			rows[f] = bitset.New(len(vecs))
		}
		// A cancelled sweep leaves its rows partial; forChunks then
		// returns the context's error and the rows are dropped.
		_, _ = eval.SweepCtx(ctx, progs, bitvec.Slice(vecs), c.judge, func(j, off int, bad uint64) {
			row := rows[idx[j]]
			for w := bad; w != 0; w &= w - 1 {
				row.Add(off + bits.TrailingZeros64(w))
			}
		})
	})
	if err != nil {
		return nil, err
	}
	m := &Matrix{
		Tests:      vecs,
		Faults:     fs,
		Sigs:       make([]*bitset.Set, len(vecs)),
		Detectable: bitset.New(len(fs)),
		Mode:       mode,
		rows:       rows,
	}
	for t := range m.Sigs {
		m.Sigs[t] = bitset.New(len(fs))
	}
	for f, row := range rows {
		if row == nil {
			continue
		}
		m.Detectable.Add(f)
		row.ForEach(func(t int) bool {
			m.Sigs[t].Add(f)
			return true
		})
	}
	return m, nil
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
	var fams []*bitset.Set
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

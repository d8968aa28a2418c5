// Package verify is the property-testing engine of the reproduction:
// given an arbitrary comparator network and a property (sorter,
// (k,n)-selector, (n/2,n/2)-merger), it renders a verdict by running
// the paper's minimal test set — or the exhaustive universe as ground
// truth — and reports a counterexample when the property fails.
//
// The paper's central claim is operational here: Verdict (minimal test
// set) and GroundTruth (all 2ⁿ inputs) must always agree, while the
// test set is exponentially smaller for selectors with small k and
// quadratically smaller for mergers.
//
// All evaluation is delegated to the compiled engine of package eval:
// the network is compiled once into a layered Program, test vectors
// of any width stream through word-parallel blocks of up to 256 lanes,
// and the engine owns the worker pool. This package only maps
// properties to word-parallel judges and shapes results.
package verify

import (
	"context"
	"fmt"
	"sort"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/network"
	"sortnets/internal/perm"
	"sortnets/internal/widevec"
)

// Property describes a decidable network property with a minimal
// binary test set, a minimal permutation test set, and an exhaustive
// binary universe for ground truth.
type Property interface {
	// Name is a short human-readable identifier, e.g. "sorter".
	Name() string
	// Lines is the number of input lines the property applies to.
	Lines() int
	// AcceptsBinary reports whether the observed output is correct
	// for the given binary input under this property.
	AcceptsBinary(in, out bitvec.Vec) bool
	// AcceptsInts reports whether the observed integer output is
	// correct for the given input (used for permutation tests).
	AcceptsInts(in, out []int) bool
	// BinaryTests streams the minimal 0/1 test set.
	BinaryTests() bitvec.Iterator
	// PermTests returns the minimal permutation test set.
	PermTests() []perm.P
	// ExhaustiveBinary streams every binary input relevant to the
	// property (the whole universe; restrictions are handled by
	// AcceptsBinary accepting out-of-contract inputs vacuously).
	ExhaustiveBinary() bitvec.Iterator
}

// Sorter is the sorting property on n lines (Theorem 2.2).
type Sorter struct{ N int }

// Name implements Property.
func (s Sorter) Name() string { return "sorter" }

// Lines implements Property.
func (s Sorter) Lines() int { return s.N }

// AcceptsBinary implements Property: the output must be sorted.
func (s Sorter) AcceptsBinary(in, out bitvec.Vec) bool { return out.IsSorted() }

// AcceptsInts implements Property.
func (s Sorter) AcceptsInts(in, out []int) bool { return sort.IntsAreSorted(out) }

// BinaryTests implements Property: all 2ⁿ−n−1 non-sorted strings.
func (s Sorter) BinaryTests() bitvec.Iterator { return core.SorterBinaryTests(s.N) }

// PermTests implements Property: the C(n,⌊n/2⌋)−1 chain permutations.
func (s Sorter) PermTests() []perm.P { return core.SorterPermTests(s.N) }

// ExhaustiveBinary implements Property.
func (s Sorter) ExhaustiveBinary() bitvec.Iterator { return bitvec.All(s.N) }

// Selector is the (k,n)-selector property (Theorem 2.4): output line i
// carries the (i+1)-st smallest input for all i < K.
type Selector struct{ N, K int }

// Name implements Property.
func (s Selector) Name() string { return fmt.Sprintf("(%d,%d)-selector", s.K, s.N) }

// Lines implements Property.
func (s Selector) Lines() int { return s.N }

// AcceptsBinary implements Property.
func (s Selector) AcceptsBinary(in, out bitvec.Vec) bool {
	want := in.Sorted()
	mask := uint64(1)<<uint(s.K) - 1
	return out.Bits&mask == want.Bits&mask
}

// AcceptsInts implements Property.
func (s Selector) AcceptsInts(in, out []int) bool {
	sorted := append([]int(nil), in...)
	sort.Ints(sorted)
	for i := 0; i < s.K; i++ {
		if out[i] != sorted[i] {
			return false
		}
	}
	return true
}

// BinaryTests implements Property: non-sorted strings with ≤ K zeros.
func (s Selector) BinaryTests() bitvec.Iterator { return core.SelectorBinaryTests(s.N, s.K) }

// PermTests implements Property.
func (s Selector) PermTests() []perm.P { return core.SelectorPermTests(s.N, s.K) }

// ExhaustiveBinary implements Property.
func (s Selector) ExhaustiveBinary() bitvec.Iterator { return bitvec.All(s.N) }

// Merger is the (n/2,n/2)-merging property (Theorem 2.5). Inputs whose
// halves are not sorted lie outside the contract and are accepted
// vacuously.
type Merger struct{ N int }

// Name implements Property.
func (m Merger) Name() string { return fmt.Sprintf("(%d,%d)-merger", m.N/2, m.N/2) }

// Lines implements Property.
func (m Merger) Lines() int { return m.N }

// AcceptsBinary implements Property.
func (m Merger) AcceptsBinary(in, out bitvec.Vec) bool {
	h := m.N / 2
	if !in.Slice(0, h).IsSorted() || !in.Slice(h, m.N).IsSorted() {
		return true
	}
	return out.IsSorted()
}

// AcceptsInts implements Property.
func (m Merger) AcceptsInts(in, out []int) bool {
	h := m.N / 2
	if !sort.IntsAreSorted(in[:h]) || !sort.IntsAreSorted(in[h:]) {
		return true
	}
	return sort.IntsAreSorted(out)
}

// BinaryTests implements Property: the n²/4 half-sorted strings.
func (m Merger) BinaryTests() bitvec.Iterator { return core.MergerBinaryTests(m.N) }

// PermTests implements Property: the n/2 permutations τᵢ.
func (m Merger) PermTests() []perm.P { return core.MergerPermTests(m.N) }

// ExhaustiveBinary implements Property.
func (m Merger) ExhaustiveBinary() bitvec.Iterator { return bitvec.All(m.N) }

// Result is the outcome of a binary-input check.
type Result struct {
	Holds          bool
	TestsRun       int
	Counterexample bitvec.Vec // valid only when !Holds
	Output         bitvec.Vec // network output on the counterexample
}

// String renders a one-line verdict.
func (r Result) String() string {
	if r.Holds {
		return fmt.Sprintf("holds (%d tests)", r.TestsRun)
	}
	return fmt.Sprintf("fails on %s -> %s (after %d tests)", r.Counterexample, r.Output, r.TestsRun)
}

func fromVerdict(v eval.Verdict) Result {
	return Result{Holds: v.Holds, TestsRun: v.TestsRun, Counterexample: v.In, Output: v.Out}
}

func engineFor(w *network.Network, p Property, workers int) *eval.Engine {
	if w.N != p.Lines() {
		panic(fmt.Sprintf("verify: network has %d lines, property wants %d", w.N, p.Lines()))
	}
	return eval.New(eval.Compile(w), workers)
}

// wholesale reports whether the ground-truth sweep for p on an
// n-line circuit may use the engine's wholesale-loading universe
// path: one of the three paper properties (whose exhaustive universe
// is exactly all 2ⁿ inputs) within the width RunUniverse accepts.
// Wider networks fall back to streaming ExhaustiveBinary, which
// completes (slowly) at any n ≤ 64 rather than panicking.
func wholesale(n int, p Property) bool {
	if n > 30 {
		return false
	}
	switch p.(type) {
	case Sorter, Selector, Merger:
		return true
	}
	return false
}

// Verdict checks the property using its minimal binary test set,
// streaming tests through the compiled network until the first
// failure (reported in stream order).
func Verdict(w *network.Network, p Property) Result {
	r, _ := VerdictCtx(context.Background(), w, p, 1)
	return r
}

// GroundTruth checks the property against the entire binary universe —
// the exhaustive baseline the minimal test sets are measured against.
func GroundTruth(w *network.Network, p Property) Result {
	r, _ := GroundTruthCtx(context.Background(), w, p, 1)
	return r
}

// PermResult is the outcome of a permutation-input check.
type PermResult struct {
	Holds          bool
	TestsRun       int
	Counterexample perm.P
	Output         []int
}

// String renders a one-line verdict.
func (r PermResult) String() string {
	if r.Holds {
		return fmt.Sprintf("holds (%d permutation tests)", r.TestsRun)
	}
	return fmt.Sprintf("fails on %s -> %v (after %d tests)", r.Counterexample, r.Output, r.TestsRun)
}

// GroundTruthPerms sweeps all n! permutations (small n only).
func GroundTruthPerms(w *network.Network, p Property) PermResult {
	prog := eval.Compile(w)
	it := perm.AllHeap(w.N)
	out := make([]int, w.N)
	tests := 0
	for {
		pm, ok := it.Next()
		if !ok {
			return PermResult{Holds: true, TestsRun: tests}
		}
		tests++
		copy(out, pm)
		prog.ApplyInts(out)
		if !p.AcceptsInts(pm, out) {
			return PermResult{Holds: false, TestsRun: tests, Counterexample: pm,
				Output: append([]int(nil), out...)}
		}
	}
}

// WideResult is the outcome of a wide binary check (n > 64, where
// only the paper's polynomial test sets are feasible).
type WideResult struct {
	Holds          bool
	TestsRun       int
	Counterexample widevec.Vec
	Output         widevec.Vec
}

// String renders a one-line verdict (counterexamples can be thousands
// of bits; only a prefix is shown).
func (r WideResult) String() string {
	if r.Holds {
		return fmt.Sprintf("holds (%d tests)", r.TestsRun)
	}
	ce := r.Counterexample.String()
	if len(ce) > 72 {
		ce = ce[:72] + "..."
	}
	return fmt.Sprintf("fails on %s (after %d tests)", ce, r.TestsRun)
}

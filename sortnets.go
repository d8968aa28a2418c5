// Package sortnets is a Go reproduction of Chung & Ravikumar, "Bounds
// on the Size of Test Sets for Sorting and Related Networks" (ICPP
// 1987; Discrete Mathematics 81, 1990): exact minimal test sets for
// deciding whether an arbitrary comparator network sorts, selects, or
// merges — with the adversarial constructions that prove the bounds
// tight, a property-testing engine, classical network generators, a
// VLSI fault simulator, and an exact behaviour-space search.
//
// This package is the public facade: it re-exports the types and
// entry points a downstream user needs from the internal packages.
//
//	w := sortnets.BatcherSorter(8)
//	res := sortnets.CheckSorter(w)        // runs the 2⁸−8−1 minimal tests
//	fmt.Println(res.Holds)                // true
//
//	sigma := sortnets.MustVec("0110")
//	h := sortnets.MustAlmostSorter(sigma) // sorts everything except 0110
//	fmt.Println(sortnets.CheckSorter(h))  // fails on 0110 -> ...
//
// The three properties and their exact minimal test-set sizes:
//
//	Sorter             2ⁿ − n − 1 binary / C(n,⌊n/2⌋) − 1 permutations
//	(k,n)-selector     Σᵢ₌₀..k C(n,i) − k − 1 / C(n,min(k,⌊n/2⌋)) − 1
//	(n/2,n/2)-merger   n²/4 / n/2
package sortnets

import (
	"context"

	"sortnets/internal/bitvec"
	"sortnets/internal/canon"
	"sortnets/internal/chains"
	"sortnets/internal/comb"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/faults"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/perm"
	"sortnets/internal/search"
	"sortnets/internal/verify"
)

// Re-exported core types.
type (
	// Network is a comparator network: n lines and an ordered sequence
	// of standard comparators.
	Network = network.Network
	// Comparator is a standard comparator [a,b] with a < b (0-based).
	Comparator = network.Comparator
	// Vec is a binary input vector of up to 64 lines.
	Vec = bitvec.Vec
	// VecIterator streams binary vectors (test sets are exponential;
	// the engines consume streams).
	VecIterator = bitvec.Iterator
	// Perm is a permutation of (1 2 … n) used as a network input.
	Perm = perm.P
	// Property is a decidable network property with minimal test sets.
	Property = verify.Property
	// Result is a binary-input verdict with counterexample.
	Result = verify.Result
	// PermResult is a permutation-input verdict.
	PermResult = verify.PermResult
	// Fault is an injectable hardware defect.
	Fault = faults.Fault
	// FaultReport aggregates a fault-coverage measurement.
	FaultReport = faults.Report
)

// The three properties of the paper.
type (
	// SorterProp is the sorting property (Theorem 2.2).
	SorterProp = verify.Sorter
	// SelectorProp is the (k,n)-selector property (Theorem 2.4).
	SelectorProp = verify.Selector
	// MergerProp is the (n/2,n/2)-merger property (Theorem 2.5).
	MergerProp = verify.Merger
)

// --- Construction -----------------------------------------------------

// NewNetwork returns an empty network on n lines.
func NewNetwork(n int) *Network { return network.New(n) }

// ParseNetwork reads the paper's text notation, e.g.
// "n=4: [1,3][2,4][1,2][3,4]".
func ParseNetwork(s string) (*Network, error) { return network.Parse(s) }

// MustParseNetwork is ParseNetwork panicking on error.
func MustParseNetwork(s string) *Network { return network.MustParse(s) }

// ParseVec reads a binary string such as "0110".
func ParseVec(s string) (Vec, error) { return bitvec.FromString(s) }

// MustVec is ParseVec panicking on error.
func MustVec(s string) Vec { return bitvec.MustFromString(s) }

// SliceIterator adapts a materialized vector slice to the streaming
// iterator the engines (and WithTestStream overrides) consume.
func SliceIterator(vs []Vec) VecIterator { return bitvec.Slice(vs) }

// ParsePerm reads a permutation such as "(4 1 3 2)".
func ParsePerm(s string) (Perm, error) { return perm.Parse(s) }

// BatcherSorter returns Batcher's odd-even mergesort network for any n.
func BatcherSorter(n int) *Network { return gen.OddEvenMergeSort(n) }

// OptimalSorter returns a published size-optimal sorter for 2 ≤ n ≤ 8,
// or nil when none is tabulated.
func OptimalSorter(n int) *Network { return gen.Optimal(n) }

// BubbleSorter returns the n(n−1)/2-comparator height-1 bubble sorter.
func BubbleSorter(n int) *Network { return gen.Bubble(n) }

// OddEvenTranspositionSorter returns the n-round brick-wall height-1
// sorter of the Section 3 primitive-network discussion.
func OddEvenTranspositionSorter(n int) *Network { return gen.OddEvenTransposition(n) }

// BatcherMerger returns the (n/2,n/2) odd-even merging network.
func BatcherMerger(n int) *Network { return gen.HalfMerger(n) }

// SelectionNetwork returns a (k,n)-selection network.
func SelectionNetwork(n, k int) *Network { return gen.Selection(n, k) }

// CanonicalNetwork returns the canonical presentation of a network —
// comparators grouped into greedy parallel layers and sorted within
// each layer — computing the same function on every input. Two
// networks that differ only in the interleaving of their parallel
// layers share a canonical form (and a NetworkDigest); the sortnetd
// service keys its verdict cache on it.
func CanonicalNetwork(w *Network) *Network { return canon.Normalize(w) }

// NetworkDigest returns the stable hex SHA-256 digest of the
// network's canonical form.
func NetworkDigest(w *Network) string { return canon.DigestString(w) }

// --- The paper's test sets --------------------------------------------

// SorterTests streams the minimal 0/1 test set for sorting:
// all 2ⁿ − n − 1 non-sorted strings (Theorem 2.2(i)).
func SorterTests(n int) VecIterator { return core.SorterBinaryTests(n) }

// SorterPermTests returns the minimal permutation test set for
// sorting: C(n,⌊n/2⌋) − 1 permutations (Theorem 2.2(ii)).
func SorterPermTests(n int) []Perm { return core.SorterPermTests(n) }

// SelectorTests streams the minimal 0/1 test set for the
// (k,n)-selector property (Theorem 2.4(i)).
func SelectorTests(n, k int) VecIterator { return core.SelectorBinaryTests(n, k) }

// SelectorPermTests returns the minimal permutation test set for the
// (k,n)-selector property (Theorem 2.4(ii)).
func SelectorPermTests(n, k int) []Perm { return core.SelectorPermTests(n, k) }

// MergerTests streams the minimal 0/1 test set for the merger
// property: n²/4 strings (Theorem 2.5(i)).
func MergerTests(n int) VecIterator { return core.MergerBinaryTests(n) }

// MergerPermTests returns the n/2 permutations τᵢ (Theorem 2.5(ii)).
func MergerPermTests(n int) []Perm { return core.MergerPermTests(n) }

// AlmostSorter returns the Lemma 2.1 network H_σ sorting every binary
// input except σ — the witness that forces σ into every test set.
func AlmostSorter(sigma Vec) (*Network, error) { return core.AlmostSorter(sigma) }

// MustAlmostSorter is AlmostSorter panicking on error.
func MustAlmostSorter(sigma Vec) *Network { return core.MustAlmostSorter(sigma) }

// Certificate is the serializable lower-bound proof object: one
// Lemma 2.1 witness per non-sorted string, independently verifiable.
type Certificate = core.Certificate

// MinimalityCertificate builds the Theorem 2.2(i) lower-bound
// certificate for n lines; Verify on the result re-checks it from
// scratch.
func MinimalityCertificate(n int) Certificate { return core.MinimalityCertificate(n) }

// --- Compiled evaluation engine ---------------------------------------

// Program is the immutable compiled form of a network: comparator
// pairs pre-extracted, packed into data-independent layers, and
// specialized per width regime (n ≤ 64 word-parallel blocks of up to
// 256 lanes, n > 64 widevec). Every verdict in this package runs on
// compiled programs; compile once when evaluating the same network
// many times.
type Program = eval.Program

// Engine streams test vectors through a compiled program with an
// engine-owned worker pool.
type Engine = eval.Engine

// Judge decides, word-parallel, which lanes of an evaluated block
// violate the property under test.
type Judge = eval.Judge

// SortedJudge rejects outputs that are not sorted (the sorting
// property) in one word-parallel pass.
func SortedJudge() Judge { return eval.SortedJudge() }

// PerLaneJudge adapts a scalar acceptance predicate to the batch
// engine.
func PerLaneJudge(accepts func(in, out Vec) bool) Judge { return eval.PerLaneJudge(accepts) }

// Compile builds the compiled form of a network.
func Compile(w *Network) *Program { return eval.Compile(w) }

// NewEngine returns an engine over a compiled program. workers: 1 =
// strictly sequential (stream-order counterexamples), k > 1 = k
// workers, 0 = automatic (sequential under the engine's work
// threshold, all cores above it).
func NewEngine(p *Program, workers int) *Engine { return eval.New(p, workers) }

// CompileFault builds the compiled program of a fault-injected
// circuit; it evaluates on all engine paths exactly like a healthy
// network's program.
func CompileFault(w *Network, f Fault) *Program { return faults.Compile(w, f) }

// --- Verdicts ----------------------------------------------------------
//
// The plain facade functions below are one-line wrappers over the
// package-level default Session (see session.go): verdicts share the
// default Session's compiled-program and verdict caches, and the
// worker rule is the repository-wide one — 0 (or negative) means
// automatic, 1 means strictly sequential, k > 1 means exactly k.
// Context-aware callers should hold a Session and use its methods.

// bg discards the impossible error of a Background-context Session
// call (conveniences fail only on cancellation; programmer errors
// still panic).
func bg[T any](v T, err error) T {
	if err != nil {
		panic(err) // unreachable: context.Background() never cancels
	}
	return v
}

// CheckSorter decides whether w is a sorter using the minimal binary
// test set.
func CheckSorter(w *Network) Result { return Check(w, verify.Sorter{N: w.N}) }

// CheckSelector decides whether w is a (k,n)-selector using the
// minimal binary test set.
func CheckSelector(w *Network, k int) Result {
	return Check(w, verify.Selector{N: w.N, K: k})
}

// CheckMerger decides whether w is an (n/2,n/2)-merger using the
// minimal binary test set.
func CheckMerger(w *Network) Result { return Check(w, verify.Merger{N: w.N}) }

// Check runs any property's minimal binary test set.
func Check(w *Network, p Property) Result {
	return bg(DefaultSession().Check(context.Background(), w, p))
}

// CheckParallel is Check with an explicit engine worker count under
// the one rule: 0 (or negative) = automatic (sequential below the
// engine's work threshold, all cores above), 1 = sequential, k > 1 =
// exactly k workers.
func CheckParallel(w *Network, p Property, workers int) Result {
	return bg(DefaultSession().CheckParallel(context.Background(), w, p, workers))
}

// CheckPerms runs any property's minimal permutation test set.
func CheckPerms(w *Network, p Property) PermResult {
	return bg(DefaultSession().CheckPerms(context.Background(), w, p))
}

// GroundTruth sweeps the full binary universe — the exhaustive
// baseline the minimal test sets replace.
func GroundTruth(w *Network, p Property) Result {
	return bg(DefaultSession().GroundTruth(context.Background(), w, p))
}

// --- Bounds (closed forms) ----------------------------------------------

// SorterTestSetSize returns 2ⁿ − n − 1 as a decimal string (exact for
// any n via big integers).
func SorterTestSetSize(n int) string { return comb.SorterBinaryTestSetSize(n).String() }

// SorterPermTestSetSize returns C(n,⌊n/2⌋) − 1 as a decimal string.
func SorterPermTestSetSize(n int) string { return comb.SorterPermTestSetSize(n).String() }

// SelectorTestSetSize returns Σᵢ₌₀..k C(n,i) − k − 1 as a decimal string.
func SelectorTestSetSize(n, k int) string { return comb.SelectorBinaryTestSetSize(n, k).String() }

// MergerTestSetSize returns n²/4 as a decimal string.
func MergerTestSetSize(n int) string { return comb.MergerBinaryTestSetSize(n).String() }

// --- Faults --------------------------------------------------------------

// DetectMode selects how a fault is observed: ByProperty (the
// paper's model — outputs judged against the property) or ByGolden
// (classical stuck-at testing against a fault-free reference).
type DetectMode = faults.DetectMode

// Detection modes.
const (
	ByProperty = faults.ByProperty
	ByGolden   = faults.ByGolden
)

// EnumerateFaults lists the single-fault universe for a network.
func EnumerateFaults(w *Network) []Fault { return faults.Enumerate(w) }

// FaultCoverage measures how many detectable faults the minimal sorter
// test set exposes on w.
func FaultCoverage(w *Network) FaultReport {
	return bg(DefaultSession().FaultCoverage(context.Background(), w))
}

// FaultMatrix is the full test × fault detection table: per-test
// fault-signature bitsets built in one streamed engine pass per
// fault.
type FaultMatrix = faults.Matrix

// DetectionMatrix builds the test × fault detection matrix for w over
// its single-fault universe and the minimal sorter test set
// (by-property observation). Use faults.DetectionMatrix directly for
// other test streams or the golden-reference mode.
func DetectionMatrix(w *Network) *FaultMatrix {
	return faults.DetectionMatrix(w, faults.Enumerate(w),
		func() VecIterator { return core.SorterBinaryTests(w.N) }, faults.ByProperty)
}

// MinimalDetectingTests greedily selects a small subset of the minimal
// sorter test set that still detects every fault the full set detects
// — stuck-at test-set selection on the same machinery that verifies
// test sets.
func MinimalDetectingTests(w *Network) []Vec {
	return bg(DefaultSession().MinSet(context.Background(), w))
}

// --- Wide networks (beyond 64 lines) ----------------------------------------

// WideResult is the outcome of a wide-width certification.
type WideResult = verify.WideResult

// CheckMergerWide certifies the (n/2,n/2)-merger property at any
// width up to 4096 lines with the n²/4-vector test set — the regime
// where a zero-one sweep is physically impossible.
func CheckMergerWide(w *Network) WideResult {
	return bg(DefaultSession().Wide(context.Background(), w, verify.Merger{N: w.N}, 1))
}

// CheckSelectorWide certifies the (k,n)-selector property at any
// width with its polynomial test set.
func CheckSelectorWide(w *Network, k int) WideResult {
	return bg(DefaultSession().Wide(context.Background(), w, verify.Selector{N: w.N, K: k}, 1))
}

// CheckMergerWideParallel is CheckMergerWide with an explicit worker
// count under the one rule (0 = automatic).
func CheckMergerWideParallel(w *Network, workers int) WideResult {
	return bg(DefaultSession().Wide(context.Background(), w, verify.Merger{N: w.N}, workers))
}

// CheckSelectorWideParallel is CheckSelectorWide with an explicit
// worker count under the one rule (0 = automatic).
func CheckSelectorWideParallel(w *Network, k, workers int) WideResult {
	return bg(DefaultSession().Wide(context.Background(), w, verify.Selector{N: w.N, K: k}, workers))
}

// --- Analysis -----------------------------------------------------------------

// NetworkStats summarizes a network's structure, including the exact
// count of comparators that never fire.
type NetworkStats = network.Stats

// Equivalent reports whether two networks compute the same function
// (exact, via the zero-one principle; exponential in n).
func Equivalent(a, b *Network) bool { return network.Equivalent(a, b) }

// RemoveRedundant returns an equivalent network with every
// never-firing comparator deleted.
func RemoveRedundant(w *Network) *Network { return w.RemoveRedundant() }

// Analyze computes structural statistics for a network.
func Analyze(w *Network) NetworkStats { return w.Analyze() }

// --- Exact search (Section 3) ---------------------------------------------

// SearchOptions tunes the exact-search pipeline: closure limit,
// branch-and-bound node budget, and the worker count. Workers == 0
// (the default) runs the closure BFS and failure-family build on
// GOMAXPROCS workers with a deterministic sequential solve (witness
// test sets reproducible run-to-run); Workers > 1 also parallelizes
// the branch and bound (same minimum cardinality, witness identity
// may vary with scheduling); Workers == 1 pins every stage
// sequential.
type SearchOptions = search.Options

// ExactMinimumTestSet computes, by behaviour-space exhaustion, the
// exact minimum 0/1 test set size for the sorting property over
// networks of comparator height ≤ h on n lines (h ≥ n−1 means
// unrestricted). Feasible for small n only. The pipeline runs with
// GOMAXPROCS workers; use ExactMinimumTestSetOpts to pin it.
func ExactMinimumTestSet(n, h int) (search.TestSetResult, error) {
	return search.MinimumTestSet(n, h, search.SorterAccepts, 50_000_000)
}

// ExactMinimumTestSetOpts is ExactMinimumTestSet with explicit
// pipeline options.
func ExactMinimumTestSetOpts(n, h int, opt SearchOptions) (search.TestSetResult, error) {
	return search.MinimumTestSetOpts(n, h, search.SorterAccepts, opt)
}

// ExactMinimumPermTestSet is the permutation-input counterpart of
// ExactMinimumTestSet: the exact minimum number of permutation tests
// for sorting over networks of height ≤ h on n lines (n ≤ 6).
func ExactMinimumPermTestSet(n, h int) (search.PermTestSetResult, error) {
	return search.MinimumPermTestSet(n, h, search.PermSorterAccepts, 50_000_000, 0)
}

// ExactMinimumPermTestSetOpts is ExactMinimumPermTestSet with explicit
// pipeline options.
func ExactMinimumPermTestSetOpts(n, h int, opt SearchOptions) (search.PermTestSetResult, error) {
	return search.MinimumPermTestSetOpts(n, h, search.PermSorterAccepts, opt)
}

// SorterPermutationChains exposes the symmetric chain decomposition
// used to build the permutation test sets.
func SorterPermutationChains(n int) []chains.Chain { return chains.Decompose(n) }

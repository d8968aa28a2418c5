// Package sortnets is a Go reproduction of Chung & Ravikumar, "Bounds
// on the Size of Test Sets for Sorting and Related Networks" (ICPP
// 1987; Discrete Mathematics 81, 1990): exact minimal test sets for
// deciding whether an arbitrary comparator network sorts, selects, or
// merges — with the adversarial constructions that prove the bounds
// tight, a property-testing engine, classical network generators, a
// VLSI fault simulator, and an exact behaviour-space search.
//
// This package is the public surface: it re-exports the types a
// downstream user needs from the internal packages, and a verdict is
// asked of a Session (session.go) — in-process through its typed
// methods or its Request/Verdict model, and over HTTP through
// sortnetd's POST /do, which serves the same model.
//
//	ctx := context.Background()
//	sess := sortnets.NewSession()
//	defer sess.Close()
//	w := sortnets.BatcherSorter(8)
//	res, _ := sess.Check(ctx, w, sortnets.SorterProp{N: 8}) // runs the 2⁸−8−1 minimal tests
//	fmt.Println(res.Holds)                                 // true
//
//	sigma := sortnets.MustVec("0110")
//	h := sortnets.MustAlmostSorter(sigma) // sorts everything except 0110
//	res, _ = sess.Check(ctx, h, sortnets.SorterProp{N: 4})
//	fmt.Println(res)                      // fails on 0110 -> ...
//
// The three properties and their exact minimal test-set sizes:
//
//	Sorter             2ⁿ − n − 1 binary / C(n,⌊n/2⌋) − 1 permutations
//	(k,n)-selector     Σᵢ₌₀..k C(n,i) − k − 1 / C(n,min(k,⌊n/2⌋)) − 1
//	(n/2,n/2)-merger   n²/4 / n/2
package sortnets

import (
	"sortnets/internal/bitvec"
	"sortnets/internal/canon"
	"sortnets/internal/chains"
	"sortnets/internal/comb"
	"sortnets/internal/core"
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
	// WideResult is a wide-width (n > 64) verdict (Session.Wide).
	WideResult = verify.WideResult
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
// iterator the engines consume.
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
//
// The minimal test sets themselves are methods of the property types:
// SorterProp{N: n}.BinaryTests() streams the 2ⁿ − n − 1 binary tests
// and .PermTests() returns the C(n,⌊n/2⌋) − 1 permutations, likewise
// for SelectorProp and MergerProp.

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

// FaultMatrix is the full test × fault detection table: per-test
// fault-signature bitsets built in one multi-program sweep per chunk
// of the fault list, each test block loaded once for all its faults.
type FaultMatrix = faults.Matrix

// DetectionMatrix builds the test × fault detection matrix for w over
// its single-fault universe and the minimal sorter test set
// (by-property observation). Use faults.DetectionMatrix directly for
// other test streams or the golden-reference mode.
func DetectionMatrix(w *Network) *FaultMatrix {
	return faults.DetectionMatrix(w, faults.Enumerate(w),
		func() VecIterator { return core.SorterBinaryTests(w.N) }, faults.ByProperty)
}

// --- Analysis -----------------------------------------------------------------

// NetworkStats summarizes a network's structure, including the exact
// count of comparators that never fire (Network.Analyze;
// Network.RemoveRedundant deletes them).
type NetworkStats = network.Stats

// Equivalent reports whether two networks compute the same function
// (exact, via the zero-one principle; exponential in n).
func Equivalent(a, b *Network) bool { return network.Equivalent(a, b) }

// --- Exact search (Section 3) ---------------------------------------------

// SearchOptions tunes the exact-search pipeline: closure limit,
// branch-and-bound node budget, and the branch and bound's worker
// count. The closure BFS and the failure-family build always run
// sequentially. Workers ≤ 1 (the default is 0) keeps the branch and
// bound sequential too, so witness test sets are reproducible
// run-to-run; Workers > 1 spreads it over that many workers (same
// minimum cardinality, witness identity may vary with scheduling).
type SearchOptions = search.Options

// ExactMinimumTestSet computes, by behaviour-space exhaustion, the
// exact minimum 0/1 test set size for the sorting property over
// networks of comparator height ≤ h on n lines (h ≥ n−1 means
// unrestricted). Feasible for small n only. The whole pipeline runs
// sequentially; use ExactMinimumTestSetOpts to spread the branch and
// bound over a worker pool.
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

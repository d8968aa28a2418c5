// Benchmark harness: one benchmark per reproduced experiment E1–E13
// (see DESIGN.md §3 for the index and EXPERIMENTS.md for archived
// numbers), plus ablation benches for the design choices DESIGN.md §5
// calls out. Run with:
//
//	go test -bench=. -benchmem
package sortnets

import (
	"context"
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/chains"
	"sortnets/internal/comb"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/faults"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/search"
	"sortnets/internal/verify"
)

// --- E1: sorter 0/1 test set (Theorem 2.2(i)) ---------------------------

// BenchmarkE1SorterBinaryTestSet streams and applies the full minimal
// 0/1 test set to a Batcher sorter at n=16: 65519 tests per iteration.
func BenchmarkE1SorterBinaryTestSet(b *testing.B) {
	const n = 16
	w := gen.Sorter(n)
	p := verify.Sorter{N: n}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !verify.Verdict(w, p).Holds {
			b.Fatal("sorter rejected")
		}
	}
}

// --- E2: sorter permutation test set (Theorem 2.2(ii)) ------------------

// BenchmarkE2SorterPermTestSet builds the C(n,⌊n/2⌋)−1 chain
// permutations and runs them through a sorter at n=12 (923 tests).
func BenchmarkE2SorterPermTestSet(b *testing.B) {
	const n = 12
	w := gen.Sorter(n)
	p := verify.Sorter{N: n}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !verify.VerdictPerms(w, p).Holds {
			b.Fatal("sorter rejected")
		}
	}
}

// --- E3/E4: selector test sets (Theorem 2.4) -----------------------------

// BenchmarkE3SelectorBinaryTestSet certifies a (3,16)-selector with
// its polynomial-size test set (693 tests instead of 65536).
func BenchmarkE3SelectorBinaryTestSet(b *testing.B) {
	const n, k = 16, 3
	w := gen.Selection(n, k)
	p := verify.Selector{N: n, K: k}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !verify.Verdict(w, p).Holds {
			b.Fatal("selector rejected")
		}
	}
}

// BenchmarkE4SelectorPermTestSet builds the truncated-SCD B(n,k)
// permutation family at n=12, k=3.
func BenchmarkE4SelectorPermTestSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.SelectorPermTests(12, 3)) != 219 {
			b.Fatal("wrong family size")
		}
	}
}

// --- E5: merger test sets (Theorem 2.5) ----------------------------------

// BenchmarkE5MergerTestSets certifies Batcher's (16,16)-merger with
// the n²/4 binary tests and the n/2 permutation tests.
func BenchmarkE5MergerTestSets(b *testing.B) {
	const n = 32
	w := gen.HalfMerger(n)
	p := verify.Merger{N: n}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !verify.Verdict(w, p).Holds {
			b.Fatal("merger rejected")
		}
		if !verify.VerdictPerms(w, p).Holds {
			b.Fatal("merger rejected on permutations")
		}
	}
}

// --- E6: Figure 1 -----------------------------------------------------------

// BenchmarkE6Trace re-runs the paper's worked example network on
// (4 1 3 2) with the step-by-step trace.
func BenchmarkE6Trace(b *testing.B) {
	w := network.MustParse("n=4: [1,3][2,4][1,2][3,4]")
	in := []int{4, 1, 3, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(w.Trace(in)) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// --- E7/E8: Lemma 2.1 construction -----------------------------------------

// BenchmarkE7BaseCases constructs and verifies the four Fig. 2 base
// networks.
func BenchmarkE7BaseCases(b *testing.B) {
	sigmas := []bitvec.Vec{
		bitvec.MustFromString("100"), bitvec.MustFromString("010"),
		bitvec.MustFromString("101"), bitvec.MustFromString("110"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sigmas {
			if err := core.VerifyAlmostSorter(core.MustAlmostSorter(s), s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE8AlmostSorter builds H_σ for every non-sorted σ at n=10
// (1013 constructions per iteration).
func BenchmarkE8AlmostSorter(b *testing.B) {
	const n = 10
	sigmas := bitvec.Collect(core.SorterBinaryTests(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sigmas {
			if core.MustAlmostSorter(s).Size() == 0 {
				b.Fatal("empty construction")
			}
		}
	}
}

// --- E9: Yao's comparison ----------------------------------------------------

// BenchmarkE9YaoComparison computes both closed-form bounds and their
// ratio across n = 2..64.
func BenchmarkE9YaoComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 2; n <= 64; n++ {
			if comb.SorterBinaryTestSetSize(n).Sign() <= 0 {
				b.Fatal("bad size")
			}
			if comb.SorterPermTestSetSize(n).Sign() < 0 {
				b.Fatal("bad size")
			}
			_ = comb.PermToBinaryRatio(n)
		}
	}
}

// --- E10/E11: behaviour-space search (Section 3) ------------------------------

// BenchmarkE10Height1 computes the exact minimum test set for height-1
// networks at n=6 by behaviour exhaustion (720 behaviours).
func BenchmarkE10Height1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := search.MinimumTestSet(6, 1, search.SorterAccepts, 0)
		if err != nil || r.Size != 5 {
			b.Fatalf("unexpected result %v %v", r, err)
		}
	}
}

// BenchmarkE11Height2 computes the exact minimum test set for height-2
// networks at n=5 (9468 behaviours, answer 26 = full set).
func BenchmarkE11Height2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := search.MinimumTestSet(5, 2, search.SorterAccepts, 0)
		if err != nil || r.Size != 26 {
			b.Fatalf("unexpected result %v %v", r, err)
		}
	}
}

// --- E12: fault coverage -------------------------------------------------------

// BenchmarkE12FaultCoverage measures minimal-test-set fault coverage
// on the optimal 6-line sorter (58 faults × 57 tests worst case).
func BenchmarkE12FaultCoverage(b *testing.B) {
	w := gen.Sorter(6)
	fs := faults.Enumerate(w)
	tests := func() bitvec.Iterator { return core.SorterBinaryTests(6) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := faults.Measure(w, fs, tests, faults.ByProperty)
		if rep.Detectable == 0 {
			b.Fatal("no detectable faults")
		}
	}
}

// --- E13: verification cost ------------------------------------------------------

// BenchmarkE13GrowthExhaustive is the exhaustive 2ⁿ sweep at n=20 the
// minimal test set competes against (bit-parallel batch engine).
func BenchmarkE13GrowthExhaustive(b *testing.B) {
	const n = 20
	w := gen.Sorter(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !w.SortsAllBinary() {
			b.Fatal("sorter rejected")
		}
	}
}

// --- E14: permutation-space exact minimums ------------------------------------

// BenchmarkE14PermSpace computes the exact minimum permutation test
// set for n=4 unrestricted networks (confirming C(4,2)−1 = 5).
func BenchmarkE14PermSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := search.MinimumPermTestSet(4, 3, search.PermSorterAccepts, 0, 0)
		if err != nil || !r.Exact || r.Size != 5 {
			b.Fatalf("unexpected result %v %v", r, err)
		}
	}
}

// --- E16: fault detection matrix + minimal detecting set ------------------------

// BenchmarkE16DetectionMatrix builds the full test × fault detection
// matrix for the optimal 6-line sorter (57 tests × 58 faults, one
// multi-program sweep per chunk of the fault list) and greedily
// selects a minimal detecting set — the VLSI test-selection workload
// on the shared engine machinery.
func BenchmarkE16DetectionMatrix(b *testing.B) {
	w := gen.Sorter(6)
	fs := faults.Enumerate(w)
	tests := func() bitvec.Iterator { return core.SorterBinaryTests(6) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := faults.DetectionMatrix(w, fs, tests, faults.ByProperty)
		if len(m.MinimalDetectingSet()) == 0 {
			b.Fatal("empty detecting set")
		}
	}
}

// --- E15: wide-width certification ----------------------------------------------

// BenchmarkE15WideMerger certifies a 256-line Batcher merger with its
// 16384-vector test set — the sweep 2²⁵⁶ makes impossible.
func BenchmarkE15WideMerger(b *testing.B) {
	w := gen.HalfMerger(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !wideVerdict(w, verify.Merger{N: 256}, 1).Holds {
			b.Fatal("merger rejected")
		}
	}
}

// BenchmarkE15WideSelector certifies a (2,192)-selection network with
// its polynomial test set.
func BenchmarkE15WideSelector(b *testing.B) {
	w := gen.Selection(192, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !wideVerdict(w, verify.Selector{N: 192, K: 2}, 1).Holds {
			b.Fatal("selector rejected")
		}
	}
}

// wideVerdict compiles w and certifies p on it with the polynomial
// wide test set, as one timed unit.
func wideVerdict(w *network.Network, p verify.Property, workers int) verify.WideResult {
	r, _ := verify.VerdictWideProgramCtx(context.Background(), eval.Compile(w), p, workers)
	return r
}

// --- Ablations (DESIGN.md §5) ------------------------------------------------------

// BenchmarkAblationScalarSweep sweeps all 2²⁰ inputs through the
// scalar one-vector-at-a-time evaluator: the baseline the
// word-parallel block engine (BenchmarkE13GrowthExhaustive) is
// measured against.
func BenchmarkAblationScalarSweep(b *testing.B) {
	const n = 20
	w := gen.Sorter(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := bitvec.All(n)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if !w.ApplyVec(v).IsSorted() {
				b.Fatal("sorter rejected")
			}
		}
	}
}

// BenchmarkAblationParallelSweep is the 2¹⁶-input universe sweep on
// the block engine's automatic worker pool, isolating what
// parallelism adds on top of word-parallel evaluation.
func BenchmarkAblationParallelSweep(b *testing.B) {
	const n = 16
	w := gen.Sorter(n)
	p := verify.Sorter{N: n}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, _ := verify.GroundTruthCtx(context.Background(), w, p, 0); !r.Holds {
			b.Fatal("sorter rejected")
		}
	}
}

// BenchmarkAblationScalarVerdict runs the n=16 minimal sorter test
// set one vector at a time through ApplyVec — the pre-engine scalar
// baseline BenchmarkAblationBatchVerdict is measured against.
func BenchmarkAblationScalarVerdict(b *testing.B) {
	const n = 16
	w := gen.Sorter(n)
	p := verify.Sorter{N: n}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := p.BinaryTests()
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if !p.AcceptsBinary(v, w.ApplyVec(v)) {
				b.Fatal("sorter rejected")
			}
		}
	}
}

// BenchmarkAblationBatchVerdict runs the same test set through the
// compiled block engine (what every verdict now uses).
func BenchmarkAblationBatchVerdict(b *testing.B) {
	const n = 16
	w := gen.Sorter(n)
	p := verify.Sorter{N: n}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !verify.Verdict(w, p).Holds {
			b.Fatal("sorter rejected")
		}
	}
}

// BenchmarkAblationCompiledVerdictPrecompiled isolates what one-time
// compilation saves when the same network is judged repeatedly: the
// program and engine are built once outside the loop.
func BenchmarkAblationCompiledVerdictPrecompiled(b *testing.B) {
	const n = 16
	eng := eval.New(eval.Compile(gen.Sorter(n)), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.Run(core.SorterBinaryTests(n), eval.SortedJudge()).Holds {
			b.Fatal("sorter rejected")
		}
	}
}

// BenchmarkAblationEnginePooledVerdict is the n=18 minimal set on the
// engine's auto worker pool.
func BenchmarkAblationEnginePooledVerdict(b *testing.B) {
	const n = 18
	w := gen.Sorter(n)
	p := verify.Sorter{N: n}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, _ := verify.VerdictCtx(context.Background(), w, p, 0); !r.Holds {
			b.Fatal("sorter rejected")
		}
	}
}

// BenchmarkE15WideMergerPooled is BenchmarkE15WideMerger with the
// test vectors spread over the engine's worker pool.
func BenchmarkE15WideMergerPooled(b *testing.B) {
	w := gen.HalfMerger(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !wideVerdict(w, verify.Merger{N: 256}, 0).Holds {
			b.Fatal("merger rejected")
		}
	}
}

// BenchmarkAblationStreamingTests measures the streaming iterator
// (zero materialization) over the n=18 test set.
func BenchmarkAblationStreamingTests(b *testing.B) {
	const n = 18
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bitvec.Count(core.SorterBinaryTests(n)) != (1<<n)-n-1 {
			b.Fatal("wrong count")
		}
	}
}

// BenchmarkAblationMaterializedTests materializes the same test set
// into a slice first — the memory-hungry alternative.
func BenchmarkAblationMaterializedTests(b *testing.B) {
	const n = 18
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs := bitvec.Collect(core.SorterBinaryTests(n))
		if len(vs) != (1<<n)-n-1 {
			b.Fatal("wrong count")
		}
	}
}

// BenchmarkAblationGreedyVsExact compares the greedy upper bound used
// inside the exact hitting-set solver against the full branch and
// bound, on the height-2 n=5 failure family.
func BenchmarkAblationGreedyVsExact(b *testing.B) {
	behaviors, err := search.Closure(5, search.Comparators(5, 2), 0)
	if err != nil {
		b.Fatal(err)
	}
	fam := search.FailureFamily(5, behaviors, search.SorterAccepts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if search.MinHittingSet(fam) == 0 {
			b.Fatal("empty hitting set")
		}
	}
}

// BenchmarkAblationChainDecomposition isolates the SCD construction
// cost at n=16 (12870 chains).
func BenchmarkAblationChainDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(chains.Decompose(16)) != 12870 {
			b.Fatal("wrong chain count")
		}
	}
}

// BenchmarkAblationBatchEvaluation measures raw comparator throughput
// of the 64-lane batch engine: evaluations/sec = 64 × b.N × size.
func BenchmarkAblationBatchEvaluation(b *testing.B) {
	const n = 32
	w := gen.OddEvenMergeSort(n)
	rng := rand.New(rand.NewSource(1))
	var vs []bitvec.Vec
	for i := 0; i < 64; i++ {
		vs = append(vs, bitvec.New(n, rng.Uint64()&(uint64(1)<<n-1)))
	}
	batch := network.LoadVecs(n, vs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ApplyBatch(batch)
	}
}

// BenchmarkAblationLemmaConstructionWorstCase isolates the most
// expensive single H_σ construction at n=16.
func BenchmarkAblationLemmaConstructionWorstCase(b *testing.B) {
	sigma := bitvec.MustFromString("1111111111111110")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.MustAlmostSorter(sigma).Size() == 0 {
			b.Fatal("empty")
		}
	}
}

// --- Serve path: request resolution --------------------------------------

// deepMixRequests is a fixed text-form mix of 32 networks at n = 12..16
// shaped like a deep serving batch: 14 sorters (a random prefix, then
// gen.OddEvenMergeSort), 11 Lemma 2.1 almost-sorters H_σ, 4
// (4,n)-selectors (a random prefix, then gen.Selection) and 3 mergers
// (gen.HalfMerger, then a random suffix).
func deepMixRequests() []Request {
	rng := rand.New(rand.NewSource(16))
	prefix := func(n int) *network.Network { return network.Random(n, 4+rng.Intn(8), rng) }
	var reqs []Request
	add := func(w *network.Network, property string, k int) {
		reqs = append(reqs, Request{Network: w.Format(), Property: property, K: k})
	}
	for i := 0; i < 14; i++ {
		n := 12 + i%5
		add(prefix(n).Append(gen.OddEvenMergeSort(n)), "", 0)
	}
	for i := 0; i < 11; i++ {
		n := 12 + i%5
		sigma := bitvec.New(n, 0)
		for sigma.IsSorted() {
			sigma = bitvec.New(n, rng.Uint64()&(1<<uint(n)-1))
		}
		h, err := core.AlmostSorter(sigma)
		if err != nil {
			panic(err)
		}
		add(h, "", 0)
	}
	for i := 0; i < 4; i++ {
		n := 12 + i%5
		add(prefix(n).Append(gen.Selection(n, 4)), "selector", 4)
	}
	for _, n := range []int{12, 14, 16} {
		add(gen.HalfMerger(n).Append(prefix(n)), "merger", 0)
	}
	return reqs
}

// BenchmarkResolve parses, canonicalizes and digests the text form of
// one deep-mix network per op, cycling through deepMixRequests: the
// work a verdict pays before any cache can answer it.
func BenchmarkResolve(b *testing.B) {
	reqs := deepMixRequests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := reqs[i%len(reqs)].resolve(16); err != nil {
			b.Fatal(err)
		}
	}
}

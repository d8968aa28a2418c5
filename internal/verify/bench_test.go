package verify

import (
	"context"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

// One-core verdict benchmarks for the row-source test sets: a program
// compiled once, then one holding verdict per iteration through the
// Session's entry point (VerdictProgramCtx, one worker), so each
// iteration is the test set's enumeration, staging, transposes,
// kernel and judge.

func benchVerdict(b *testing.B, prog *eval.Program, p Property, tests int) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := VerdictProgramCtx(ctx, prog, p)
		if err != nil || !r.Holds || r.TestsRun != tests {
			b.Fatalf("%s: %s, %v", p.Name(), r, err)
		}
	}
}

// BenchmarkVerdictSelector: the 16-line odd-even merge sorter passes
// the (8,16)-selector's 39,194 tests.
func BenchmarkVerdictSelector(b *testing.B) {
	benchVerdict(b, eval.Compile(gen.OddEvenMergeSort(16)), Selector{N: 16, K: 8}, 39194)
}

// BenchmarkVerdictMerger: the 64-line Batcher merger passes its 1,024
// tests.
func BenchmarkVerdictMerger(b *testing.B) {
	benchVerdict(b, eval.Compile(gen.HalfMerger(64)), Merger{N: 64}, 1024)
}

// One-core permutation verdict benchmarks, through the network-taking
// VerdictPerms (a compile per iteration, as in E2): each iteration is
// the compile, the threshold fill from the memoized family, kernel and
// judge, and on a failure the one failing permutation's output.

func benchPerms(b *testing.B, w *network.Network, p Property, holds bool, tests int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := VerdictPerms(w, p); r.Holds != holds || r.TestsRun != tests {
			b.Fatalf("%s: %s", p.Name(), r)
		}
	}
}

// BenchmarkVerdictPermsSorter: the 12-line sorter passes its 923
// chain permutations (E2's verdict).
func BenchmarkVerdictPermsSorter(b *testing.B) {
	benchPerms(b, gen.Sorter(12), Sorter{N: 12}, true, 923)
}

// BenchmarkVerdictPermsSorterFailing: the Lemma 2.1 almost-sorter
// H_σ for σ = 101001011010 fails only on σ, so only on the one chain
// permutation whose cover holds σ, test 889 of 923.
func BenchmarkVerdictPermsSorterFailing(b *testing.B) {
	w, err := core.AlmostSorter(bitvec.MustFromString("101001011010"))
	if err != nil {
		b.Fatal(err)
	}
	benchPerms(b, w, Sorter{N: 12}, false, 889)
}

// BenchmarkVerdictPermsSelector: the (6,12)-selection network passes
// the (6,12)-selector's 923 permutations.
func BenchmarkVerdictPermsSelector(b *testing.B) {
	benchPerms(b, gen.Selection(12, 6), Selector{N: 12, K: 6}, true, 923)
}

// BenchmarkVerdictPermsMerger: the 64-line Batcher merger passes its
// 32 permutations τᵢ.
func BenchmarkVerdictPermsMerger(b *testing.B) {
	benchPerms(b, gen.HalfMerger(64), Merger{N: 64}, true, 32)
}

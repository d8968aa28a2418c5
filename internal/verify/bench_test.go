package verify

import (
	"context"
	"testing"

	"sortnets/internal/eval"
	"sortnets/internal/gen"
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

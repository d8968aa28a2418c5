package faults

import (
	"context"
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

// minsetBenchBudget is the node budget a minset request's exact solve
// runs under.
const minsetBenchBudget = 2_000_000

// prefixedSorter8 is an 8-line sorter behind a fixed 7-comparator
// random prefix: it still sorts, and its faults are those of a
// minset request on a holding network.
func prefixedSorter8() *network.Network {
	return network.Random(8, 7, rand.New(rand.NewSource(1))).Append(gen.Sorter(8))
}

// minsetBenchNets are the circuits the minset-path benchmarks run on:
// the prefixed sorter and a 20-comparator random 8-line network.
func minsetBenchNets() []struct {
	name string
	w    *network.Network
} {
	return []struct {
		name string
		w    *network.Network
	}{
		{"prefixed-sorter", prefixedSorter8()},
		{"random", network.Random(8, 20, rand.New(rand.NewSource(8)))},
	}
}

func sorterTests8() bitvec.Iterator { return core.SorterBinaryTests(8) }

// BenchmarkMinsetMatrix times the detection matrix of a by-property
// minset request: both engine passes plus the row and signature fill.
func BenchmarkMinsetMatrix(b *testing.B) {
	for _, c := range minsetBenchNets() {
		b.Run(c.name, func(b *testing.B) {
			golden, fs, ctx := eval.Compile(c.w), Enumerate(c.w), context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DetectionMatrixCtx(ctx, c.w, golden, fs, sorterTests8, ByProperty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinsetExact times the exact minimum detecting set solved
// from a built matrix: the hitting-set reduction and branch and bound.
func BenchmarkMinsetExact(b *testing.B) {
	for _, c := range minsetBenchNets() {
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			m, err := DetectionMatrixCtx(ctx, c.w, eval.Compile(c.w), Enumerate(c.w), sorterTests8, ByProperty)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, exact, err := m.ExactMinimalDetectingSetCtx(ctx, minsetBenchBudget, 1); err != nil || !exact {
					b.Fatalf("exact solve: exact=%v, err=%v", exact, err)
				}
			}
		})
	}
}

// BenchmarkFaultsMeasure times the coverage report of a by-property
// faults request, the other half of the mixed fault workload.
func BenchmarkFaultsMeasure(b *testing.B) {
	for _, c := range minsetBenchNets() {
		b.Run(c.name, func(b *testing.B) {
			golden, fs, ctx := eval.Compile(c.w), Enumerate(c.w), context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MeasureCtx(ctx, c.w, golden, fs, sorterTests8, ByProperty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

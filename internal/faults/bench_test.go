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

// faultBenchCase is one fault-pass benchmark case.
type faultBenchCase struct {
	name string
	w    *network.Network
	mode DetectMode
}

// faultBenchCases are the fault-pass benchmark cases: each circuit of
// minsetBenchNets by property, the mode of sorter requests, and then
// by golden reference, the mode selector and merger requests take.
func faultBenchCases() []faultBenchCase {
	var cases []faultBenchCase
	for _, mode := range []DetectMode{ByProperty, ByGolden} {
		for _, c := range minsetBenchNets() {
			name := c.name
			if mode == ByGolden {
				name += "-by-golden"
			}
			cases = append(cases, faultBenchCase{name, c.w, mode})
		}
	}
	return cases
}

func sorterTests8() bitvec.Iterator { return core.SorterBinaryTests(8) }

// BenchmarkMinsetMatrix times the detection matrix of a minset
// request: both fault passes plus the row and signature fill.
func BenchmarkMinsetMatrix(b *testing.B) {
	for _, c := range faultBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			golden, fs, ctx := eval.Compile(c.w), Enumerate(c.w), context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DetectionMatrixCtx(ctx, c.w, golden, fs, sorterTests8, c.mode); err != nil {
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

// BenchmarkFaultsMeasure times the coverage report of a faults
// request, the other half of the mixed fault workload, and of one on a
// random 12-line, 1,024-comparator network: 16 universe blocks and
// faults whose differences die out long before the last comparator,
// so a pass leaves most faults where they rejoin the healthy run and
// spreads over the cores.
func BenchmarkFaultsMeasure(b *testing.B) {
	cases := append(faultBenchCases(), faultBenchCase{"random-12x1024", network.Random(12, 1024, rand.New(rand.NewSource(12))), ByProperty})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			golden, fs, ctx := eval.Compile(c.w), Enumerate(c.w), context.Background()
			n := c.w.N
			tests := func() bitvec.Iterator { return core.SorterBinaryTests(n) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MeasureCtx(ctx, c.w, golden, fs, tests, c.mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package eval

import (
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

// The acceptance bar for the compiled engine: the layered compiled
// path must at least match the network's reference batch path on ≤ 64
// lines.

// --- raw comparator throughput: network vs compiled ---------------------

func BenchmarkBatchNetworkPath(b *testing.B) {
	w := gen.OddEvenMergeSort(16)
	batch := randomBatch(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ApplyBatch(batch)
	}
}

func BenchmarkBatchCompiledPath(b *testing.B) {
	w := gen.OddEvenMergeSort(16)
	p := Compile(w)
	batch := randomBatch(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ApplyBatch(batch)
	}
}

func randomBatch(n int) *network.Batch {
	rng := rand.New(rand.NewSource(1))
	var vs []bitvec.Vec
	for i := 0; i < 64; i++ {
		vs = append(vs, bitvec.New(n, rng.Uint64()&(uint64(1)<<uint(n)-1)))
	}
	return network.LoadVecs(n, vs)
}

// --- minimal-set verdict: the pooled engine ----------------------------

// BenchmarkVerdictEnginePooled streams the 16-line minimal sorter test
// set through the engine with its worker pool (the sequential pass is
// BenchmarkKernelMinimalStream).
func BenchmarkVerdictEnginePooled(b *testing.B) {
	const n = 16
	p := Compile(gen.OddEvenMergeSort(n))
	e := New(p, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Run(notSorted(n), SortedJudge()).Holds {
			b.Fatal("sorter rejected")
		}
	}
}

func notSorted(n int) bitvec.Iterator {
	return bitvec.NotSorted(bitvec.All(n))
}

// --- exhaustive universe: network sweep vs engine -----------------------

func BenchmarkUniverseNetworkSweep(b *testing.B) {
	w := gen.OddEvenMergeSort(18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !w.SortsAllBinary() {
			b.Fatal("sorter rejected")
		}
	}
}

func BenchmarkUniverseEngine(b *testing.B) {
	p := Compile(gen.OddEvenMergeSort(18))
	e := New(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.RunUniverse(SortedJudge()).Holds {
			b.Fatal("sorter rejected")
		}
	}
}

// --- fault path: compiled variant batch sweep ---------------------------

// BenchmarkFaultDetectableBatch checks that a bypass fault in a
// 10-line sorter is detectable, on the compiled variant's block
// universe sweep.
func BenchmarkFaultDetectableBatch(b *testing.B) {
	w := gen.Sorter(10)
	ops := make([]Op, len(w.Comps))
	for i, c := range w.Comps {
		kind := OpCmp
		if i == 3 {
			kind = OpNop
		}
		ops[i] = Op{Kind: kind, A: c.A, B: c.B}
	}
	p := NewProgram(10, ops)
	e := New(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.RunUniverse(SortedJudge()).Holds {
			b.Fatal("fault not detectable")
		}
	}
}

// --- block engine throughput ----------------------------------------------

// Two shapes of the same 16-line merge sorter:
//
//   - Universe: the exhaustive 2^16 sweep on the wholesale-loading
//     path — pure kernel + judge throughput, no enumeration cost, no
//     early exit (the property holds).
//   - MinimalStream: the full 2^16−17-vector minimal sorter test set
//     through a holding network — kernel plus live Gosper/filter
//     enumeration, the serve path's per-verdict profile.
//
// ns/op is per full verification pass; divide by 65536 or 65519
// (tests) for per-vector cost.

func BenchmarkKernelUniverse(b *testing.B) {
	e := New(Compile(gen.OddEvenMergeSort(16)), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.RunUniverse(SortedJudge()).Holds {
			b.Fatal("sorter failed its universe sweep")
		}
	}
}

func BenchmarkKernelMinimalStream(b *testing.B) {
	e := New(Compile(gen.OddEvenMergeSort(16)), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Run(notSorted(16), SortedJudge()).Holds {
			b.Fatal("sorter failed its minimal test set")
		}
	}
}

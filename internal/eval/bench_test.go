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
		ops[i] = Op{Kind: kind, A: uint16(c.A), B: uint16(c.B)}
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

// Three shapes of the same 16-line merge sorter:
//
//   - Universe: the exhaustive 2^16 sweep — pure kernel + judge
//     throughput, no early exit (the property holds).
//   - MinimalStream: the full 2^16−17-vector minimal sorter test set
//     through a holding network, the serve path's per-verdict
//     profile. The set is a span of the universe, loaded wholesale
//     like it, plus a hole mask for the 17 sorted words.
//   - MinimalStreamGroup: one RunMany pass of five holding sorters
//     (random prefixes on the merge sorter) over the same set, the
//     batch path's profile: one load per block for all five.
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

func BenchmarkKernelMinimalStreamGroup(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	progs := make([]*Program, 5)
	for i := range progs {
		progs[i] = Compile(network.Random(16, 4+i, rng).Append(gen.OddEvenMergeSort(16)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range RunMany(progs, notSorted(16), SortedJudge()) {
			if !v.Holds {
				b.Fatal("a sorter failed its minimal test set")
			}
		}
	}
}

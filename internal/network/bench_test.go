package network

import (
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
)

func benchSorter16() *Network {
	// Batcher's 16-line network, inlined to avoid importing gen
	// (which would create an import cycle in benchmarks).
	w := New(16)
	var sortRange func(lo, n int)
	var mergeRange func(p []int, m int)
	mergeRange = func(p []int, m int) {
		n := len(p) - m
		if m == 0 || n == 0 {
			return
		}
		if m == 1 && n == 1 {
			w.AddPair(p[0], p[1])
			return
		}
		var po, pe []int
		for i := 0; i < m; i += 2 {
			po = append(po, p[i])
		}
		for i := 1; i < m; i += 2 {
			pe = append(pe, p[i])
		}
		mo := len(po)
		for i := m; i < len(p); i += 2 {
			po = append(po, p[i])
		}
		for i := m + 1; i < len(p); i += 2 {
			pe = append(pe, p[i])
		}
		mergeRange(po, mo)
		mergeRange(pe, m/2)
		for i := 1; i <= len(pe) && i < len(po); i++ {
			a, b := pe[i-1], po[i]
			if a > b {
				a, b = b, a
			}
			w.AddPair(a, b)
		}
	}
	sortRange = func(lo, n int) {
		if n <= 1 {
			return
		}
		m := (n + 1) / 2
		sortRange(lo, m)
		sortRange(lo+m, n-m)
		p := make([]int, n)
		for i := range p {
			p[i] = lo + i
		}
		mergeRange(p, m)
	}
	sortRange(0, 16)
	return w
}

// BenchmarkApplyVec measures single-vector evaluation: two bit ops
// per comparator.
func BenchmarkApplyVec(b *testing.B) {
	w := benchSorter16()
	v := bitvec.MustFromString("1010101010101010")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.ApplyVec(v).N != 16 {
			b.Fatal("bad output")
		}
	}
}

// BenchmarkApplyInts measures the integer path used for permutations.
func BenchmarkApplyInts(b *testing.B) {
	w := benchSorter16()
	in := make([]int, 16)
	for i := range in {
		in[i] = 16 - i
	}
	buf := make([]int, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		w.ApplyInPlace(buf)
	}
}

// BenchmarkApplyBatch measures the 64-lane engine: one AND + one OR
// per comparator advances 64 vectors.
func BenchmarkApplyBatch(b *testing.B) {
	w := benchSorter16()
	rng := rand.New(rand.NewSource(1))
	var vs []bitvec.Vec
	for i := 0; i < 64; i++ {
		vs = append(vs, bitvec.New(16, rng.Uint64()&0xFFFF))
	}
	batch := LoadVecs(16, vs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ApplyBatch(batch)
	}
}

// BenchmarkSortsAllBinary measures the full 2^16 zero-one sweep.
func BenchmarkSortsAllBinary(b *testing.B) {
	w := benchSorter16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !w.SortsAllBinary() {
			b.Fatal("sorter rejected")
		}
	}
}

// BenchmarkEquivalent measures semantic equivalence checking at n=16.
func BenchmarkEquivalent(b *testing.B) {
	x := benchSorter16()
	y := x.Compact()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Equivalent(x, y) {
			b.Fatal("compacted network inequivalent")
		}
	}
}

// BenchmarkDiagram measures ASCII rendering.
func BenchmarkDiagram(b *testing.B) {
	w := benchSorter16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(w.Diagram()) == 0 {
			b.Fatal("empty diagram")
		}
	}
}

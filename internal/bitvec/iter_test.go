package bitvec

import (
	"testing"
)

func TestAllEnumeratesUniverse(t *testing.T) {
	for n := 0; n <= 10; n++ {
		seen := make(map[uint64]bool)
		it := All(n)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if v.N != n {
				t.Fatalf("n=%d: vector of length %d", n, v.N)
			}
			if seen[v.Bits] {
				t.Fatalf("n=%d: duplicate %q", n, v)
			}
			seen[v.Bits] = true
		}
		if len(seen) != Universe(n) {
			t.Errorf("n=%d: enumerated %d, want %d", n, len(seen), Universe(n))
		}
	}
}

func TestFixedWeightCounts(t *testing.T) {
	for n := 0; n <= 14; n++ {
		total := 0
		for k := 0; k <= n; k++ {
			c := Count(FixedWeight(n, k))
			if c != binom(n, k) {
				t.Errorf("n=%d k=%d: count %d, want C(n,k)=%d", n, k, c, binom(n, k))
			}
			total += c
		}
		if total != Universe(n) {
			t.Errorf("n=%d: weights total %d, want 2^n=%d", n, total, Universe(n))
		}
	}
}

func TestFixedWeightContents(t *testing.T) {
	it := FixedWeight(4, 2)
	var got []string
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		if v.Ones() != 2 {
			t.Errorf("vector %q has weight %d", v, v.Ones())
		}
		got = append(got, v.String())
	}
	want := []string{"1100", "1010", "0110", "1001", "0101", "0011"}
	if len(got) != len(want) {
		t.Fatalf("got %d vectors: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFixedWeightEdges(t *testing.T) {
	if Count(FixedWeight(5, -1)) != 0 {
		t.Error("negative weight should be empty")
	}
	if Count(FixedWeight(5, 6)) != 0 {
		t.Error("over-weight should be empty")
	}
	if Count(FixedWeight(0, 0)) != 1 {
		t.Error("FixedWeight(0,0) should yield the empty vector once")
	}
	if Count(FixedWeight(5, 0)) != 1 || Count(FixedWeight(5, 5)) != 1 {
		t.Error("extreme weights should yield exactly one vector")
	}
}

func TestNotSortedFilter(t *testing.T) {
	for n := 1; n <= 12; n++ {
		c := Count(NotSorted(All(n)))
		want := Universe(n) - (n + 1)
		if c != want {
			t.Errorf("n=%d: %d non-sorted vectors, want 2^n-(n+1)=%d", n, c, want)
		}
	}
}

// TestSpanMatchesFilter: NotSorted of a span yields exactly what the
// generic filter over the universe yields, from any starting point.
func TestSpanMatchesFilter(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for _, drawn := range []int{0, 1, 7, 64, 300} {
			sp := NotSorted(All(n))
			ref := Filter(All(n), func(v Vec) bool { return !v.IsSorted() })
			for range drawn {
				sp.Next()
				ref.Next()
			}
			got, want := Collect(sp), Collect(ref)
			if len(got) != len(want) {
				t.Fatalf("n=%d drawn %d: span yields %d vectors, filter %d", n, drawn, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d drawn %d: vector %d is %s, filter %s", n, drawn, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSpanTakeMatchesNext: the blocks FillLines takes cover exactly
// the words Next would yield — every other lane marked a hole, tests
// counting the rest, each lane's line bits and Lane reading the word —
// for the universe and its non-sorted words, from any starting point,
// and Len counts the same words.
func TestSpanTakeMatchesNext(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for _, drawn := range []int{0, 1, 5, 63, 64, 65, 200} {
			for _, unsorted := range []bool{false, true} {
				span := func() *Span {
					var it Iterator = All(n)
					if unsorted {
						it = NotSorted(it)
					}
					for range drawn {
						it.Next()
					}
					return it.(*Span)
				}
				want := Collect(span())
				sp := span()
				if sp.Len() != len(want) {
					t.Fatalf("n=%d drawn %d unsorted=%v: Len %d, Next yields %d", n, drawn, unsorted, sp.Len(), len(want))
				}
				var got []Vec
				var holes [4]uint64
				dst := make([]uint64, 4*n)
				for lim := 64; ; lim = min(2*lim, 256) {
					lanes, tests := sp.FillLines(dst, lim, holes[:])
					if lanes == 0 {
						break
					}
					base := sp.Lane(0).Bits
					if base%64 != 0 || lanes > lim {
						t.Fatalf("n=%d: block of %d lanes from %d under lim %d", n, lanes, base, lim)
					}
					W := (lanes + 63) / 64
					kept := 0
					for j := 0; j < lanes; j++ {
						var x uint64
						for i := 0; i < n; i++ {
							x |= (dst[i*W+j/64] >> uint(j%64) & 1) << uint(i)
						}
						if x != base+uint64(j) || sp.Lane(j).Bits != x {
							t.Fatalf("n=%d: lane %d of the block from %d holds %b, Lane reads %s", n, j, base, x, sp.Lane(j))
						}
						if holes[j/64]>>uint(j%64)&1 == 0 {
							got = append(got, Vec{N: n, Bits: x})
							kept++
						}
					}
					if kept != tests {
						t.Fatalf("n=%d drawn %d: block from %d counts %d tests, has %d non-hole lanes", n, drawn, base, tests, kept)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("n=%d drawn %d unsorted=%v: blocks hold %d vectors, Next yields %d", n, drawn, unsorted, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d drawn %d unsorted=%v: vector %d is %s, Next yields %s", n, drawn, unsorted, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestGrayCodeAdjacency(t *testing.T) {
	for n := 1; n <= 10; n++ {
		it := GrayCode(n)
		prev, ok := it.Next()
		if !ok {
			t.Fatal("empty gray code")
		}
		seen := map[uint64]bool{prev.Bits: true}
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if d := prev.Bits ^ v.Bits; d == 0 || d&(d-1) != 0 {
				t.Fatalf("n=%d: consecutive gray codes %q -> %q differ in != 1 bit", n, prev, v)
			}
			if seen[v.Bits] {
				t.Fatalf("n=%d: duplicate %q", n, v)
			}
			seen[v.Bits] = true
			prev = v
		}
		if len(seen) != Universe(n) {
			t.Errorf("n=%d: gray code covered %d of %d", n, len(seen), Universe(n))
		}
	}
}

func TestCollectAndSlice(t *testing.T) {
	vs := Collect(FixedWeight(5, 3))
	if len(vs) != 10 {
		t.Fatalf("collected %d, want 10", len(vs))
	}
	again := Collect(Slice(vs))
	if len(again) != len(vs) {
		t.Fatalf("slice iterator yielded %d", len(again))
	}
	for i := range vs {
		if vs[i] != again[i] {
			t.Errorf("position %d differs", i)
		}
	}
}

func TestRankUnrankFixedWeight(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for k := 0; k <= n; k++ {
			it := FixedWeight(n, k)
			rank := 0
			for {
				v, ok := it.Next()
				if !ok {
					break
				}
				if got := RankFixedWeight(v); got != rank {
					t.Fatalf("n=%d k=%d: rank of %q = %d, want %d", n, k, v, got, rank)
				}
				if got := UnrankFixedWeight(n, k, rank); got != v {
					t.Fatalf("n=%d k=%d: unrank(%d) = %q, want %q", n, k, rank, got, v)
				}
				rank++
			}
		}
	}
}

func TestFilter(t *testing.T) {
	evenOnes := Filter(All(6), func(v Vec) bool { return v.Ones()%2 == 0 })
	if c := Count(evenOnes); c != 32 {
		t.Errorf("even-weight count = %d, want 32", c)
	}
}

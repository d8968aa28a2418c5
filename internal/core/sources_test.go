package core

import (
	"slices"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/comb"
	"sortnets/internal/perm"
	"sortnets/internal/widevec"
)

// The references below enumerate the selector and merger test sets
// from their definitions, sharing no code with the sources: the
// selector's zero positions are chosen largest first, each in
// increasing order below the one above it, which lists the zero masks
// of a zero count in increasing value; the merger's rows are set bit
// by bit. A test set is flat: row j at [j·R, (j+1)·R), R = ⌈n/64⌉.

// selectorRef is the (k,n)-selector test set: for z = 0..k, every
// vector with z zeros in increasing zero-mask order, minus the sorted
// one (the smallest mask, zeros on lines 0..z−1).
func selectorRef(n, k int) []uint64 {
	R := (n + 63) / 64
	ones := make([]uint64, R)
	for line := 0; line < n; line++ {
		ones[line>>6] |= 1 << uint(line&63)
	}
	var rows []uint64
	for z := 0; z <= k; z++ {
		pos := make([]int, z)
		sorted := true
		var choose func(i, below int)
		choose = func(i, below int) {
			if i < 0 {
				if !sorted {
					rows = append(rows, ones...)
					for _, p := range pos {
						rows[len(rows)-R+p>>6] &^= 1 << uint(p&63)
					}
				}
				sorted = false
				return
			}
			for p := i; p < below; p++ {
				pos[i] = p
				choose(i-1, p)
			}
		}
		choose(z-1, n)
	}
	return rows
}

// mergerRef is the merger test set: 0^(h−i) 1^i over 0^k 1^(h−k) for
// the pairs (i, k), i-major.
func mergerRef(n int) []uint64 {
	h, R := n/2, (n+63)/64
	var rows []uint64
	for i := 1; i <= h; i++ {
		for k := 1; k <= h; k++ {
			row := make([]uint64, R)
			for line := 0; line < n; line++ {
				if line >= h-i && line < h || line >= h+k {
					row[line>>6] |= 1 << uint(line&63)
				}
			}
			rows = append(rows, row...)
		}
	}
	return rows
}

// fillFunc stages up to lim rows into dst and returns how many.
type fillFunc func(dst []uint64, lim int) int

// vecFill is Next as a fillFunc.
func vecFill(t *testing.T, n int, it bitvec.Iterator) fillFunc {
	return func(dst []uint64, lim int) int {
		for c := range lim {
			v, ok := it.Next()
			if !ok {
				return c
			}
			if v.N != n {
				t.Fatalf("vector %s has %d lines, want %d", v, v.N, n)
			}
			dst[c] = v.Bits
		}
		return lim
	}
}

// sameTests draws a test set of n-line rows in blocks of 1, 2, 3, …,
// 64 rows, so that block ends fall everywhere, and compares it with
// want element by element; only a short block may end the stream, and
// nothing may follow it.
func sameTests(t *testing.T, what string, n int, fill fillFunc, want []uint64) {
	t.Helper()
	R := (n + 63) / 64
	dst := make([]uint64, 64*R)
	for j, lim := 0, 1; ; lim = lim%64 + 1 {
		got := fill(dst, lim)
		for c := 0; c < got; c, j = c+1, j+R {
			row := dst[c*R : c*R+R]
			if j == len(want) {
				t.Fatalf("%s at n=%d: more than %d tests", what, n, j/R)
			}
			if !slices.Equal(row, want[j:j+R]) {
				t.Fatalf("%s at n=%d: test %d is %s, want %s", what, n, j/R, widevec.FromWords(n, row), widevec.FromWords(n, want[j:j+R]))
			}
		}
		if got < lim {
			if j != len(want) || fill(dst, lim) != 0 {
				t.Fatalf("%s at n=%d: stream ends after %d tests, want %d", what, n, j/R, len(want)/R)
			}
			return
		}
	}
}

// collect drains a test set of n-line rows.
func collect(n int, fill fillFunc) []uint64 {
	R := (n + 63) / 64
	var rows []uint64
	for {
		dst := make([]uint64, 64*R)
		got := fill(dst, 64)
		rows = append(rows, dst[:got*R]...)
		if got < 64 {
			return rows
		}
	}
}

// TestSelectorTestsMatchReference: the selector test set, drawn as
// Vecs and as rows, equals the reference element by element, for
// every k at n = 2..20 and for k = 1..3 beyond 64 lines. Each k's set
// is a prefix of the k = n one.
func TestSelectorTestsMatchReference(t *testing.T) {
	for n := 2; n <= 20; n++ {
		ref := selectorRef(n, n)
		for k := 1; k <= n; k++ {
			want := ref[:comb.SelectorBinaryTestSetSize(n, k).Int64()]
			sameTests(t, "Vecs", n, vecFill(t, n, SelectorBinaryTests(n, k)), want)
			sameTests(t, "rows", n, SelectorBinaryTests(n, k).FillRows, want)
		}
	}
	for _, n := range []int{65, 96, 130} {
		for k := 1; k <= 3; k++ {
			sameTests(t, "wide rows", n, SelectorBinaryTests(n, k).FillRows, selectorRef(n, k))
		}
	}
}

// TestMergerTestsMatchReference: the merger test set equals the
// reference element by element, as Vecs and as rows at every even
// n ≤ 64, and as rows at n = 96 and 130.
func TestMergerTestsMatchReference(t *testing.T) {
	for n := 2; n <= 64; n += 2 {
		sameTests(t, "Vecs", n, vecFill(t, n, MergerBinaryTests(n)), mergerRef(n))
		sameTests(t, "rows", n, MergerBinaryTests(n).FillRows, mergerRef(n))
	}
	for _, n := range []int{96, 130} {
		sameTests(t, "wide rows", n, MergerBinaryTests(n).FillRows, mergerRef(n))
	}
}

// TestNextNeedsNarrowSets: Next yields bitvec vectors, so it refuses
// a test set wider than 64 lines.
func TestNextNeedsNarrowSets(t *testing.T) {
	for name, it := range map[string]bitvec.Iterator{
		"selector": SelectorBinaryTests(65, 1),
		"merger":   MergerBinaryTests(66),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Next beyond 64 lines did not panic", name)
				}
			}()
			it.Next()
		}()
	}
}

func TestSelectorWideTestsBeyond64Lines(t *testing.T) {
	// Spot-check the wide-only regime: n=70, k=1 has exactly 69
	// tests (70 single-zero strings minus the sorted 0·1⁶⁹), the zero
	// on lines 1..69 in order, across the word boundary at line 64.
	const n = 70
	rows := collect(n, SelectorBinaryTests(n, 1).FillRows)
	if len(rows) != 69*2 {
		t.Fatalf("n=70 k=1: %d tests, want 69", len(rows)/2)
	}
	for i := 0; i < 69; i++ {
		v := widevec.FromWords(n, rows[2*i:2*i+2])
		if v.Zeros() != 1 || v.Bit(i+1) != 0 {
			t.Fatalf("bad test %d: %s", i, v)
		}
	}
}

// TestMergerWideTestsBeyond64Lines: at n = 130 every test is
// 0^(h−i) 1^i over 0^k 1^(h−k), i and k in stream order, its ones
// spanning all three row words.
func TestMergerWideTestsBeyond64Lines(t *testing.T) {
	const n, h = 130, 65
	rows := collect(n, MergerBinaryTests(n).FillRows)
	if len(rows) != 3*h*h {
		t.Fatalf("%d tests, want %d", len(rows)/3, h*h)
	}
	for j := 0; j < h*h; j++ {
		v := widevec.FromWords(n, rows[3*j:3*j+3])
		i, k := 1+j/h, 1+j%h
		for line := 0; line < n; line++ {
			want := 0
			if line < h && line >= h-i || line >= h+k {
				want = 1
			}
			if v.Bit(line) != want {
				t.Fatalf("test %d (i=%d k=%d) = %s", j, i, k, v)
			}
		}
	}
}

// TestPermThresholdsMatchFamilies: the blocks a permutation threshold
// source writes hold, lane by lane outside their holes, exactly the
// thresholds t = 1..n−1 of each permutation of the family in order,
// which Lane reads back too — at widths where n−1 divides 64 and where
// it does not, from the start and after Next has drawn some of them.
func TestPermThresholdsMatchFamilies(t *testing.T) {
	type family struct {
		name  string
		perms []perm.P
		src   func() *PermThresholds
	}
	var fams []family
	for _, n := range []int{2, 3, 4, 5, 8, 9, 12, 13} {
		fams = append(fams, family{"sorter", SorterPermTests(n), func() *PermThresholds { return SorterPermThresholds(n) }})
	}
	for _, n := range []int{7, 9, 16, 17} {
		fams = append(fams, family{"selector", SelectorPermTests(n, 2), func() *PermThresholds { return SelectorPermThresholds(n, 2) }})
	}
	for _, n := range []int{2, 6, 18, 64} {
		fams = append(fams, family{"merger", MergerPermTests(n), func() *PermThresholds { return MergerPermThresholds(n) }})
	}
	for _, f := range fams {
		n := len(f.perms[0])
		var want []bitvec.Vec
		for _, p := range f.perms {
			for th := 1; th < n; th++ {
				want = append(want, p.Threshold(th))
			}
		}
		for _, drawn := range []int{0, 1, n - 1, 2*n + 1} {
			src := f.src()
			for range drawn {
				src.Next()
			}
			var got []bitvec.Vec
			dst := make([]uint64, n*4)
			var holes [4]uint64
			for lim := 64; ; lim = min(2*lim, 256) {
				lanes, tests := src.FillLines(dst, lim, holes[:])
				if lanes == 0 {
					break
				}
				W := (lanes + 63) / 64
				if lanes > lim {
					t.Fatalf("%s n=%d: %d lanes under lim %d", f.name, n, lanes, lim)
				}
				kept := 0
				for j := 0; j < lanes; j++ {
					if holes[j/64]>>uint(j%64)&1 == 1 {
						continue
					}
					var x uint64
					for i := 0; i < n; i++ {
						x |= (dst[i*W+j/64] >> uint(j%64) & 1) << uint(i)
					}
					v := bitvec.Vec{N: n, Bits: x}
					if lv := src.Lane(j); lv != v {
						t.Fatalf("%s n=%d drawn %d: lane %d holds %s, Lane reads %s", f.name, n, drawn, j, v, lv)
					}
					got = append(got, v)
					kept++
				}
				if kept != tests {
					t.Fatalf("%s n=%d drawn %d: block counts %d tests, has %d non-hole lanes", f.name, n, drawn, tests, kept)
				}
			}
			if !slices.Equal(got, want[min(drawn, len(want)):]) {
				t.Fatalf("%s n=%d drawn %d: blocks hold %d vectors, want the family's %d thresholds after %d", f.name, n, drawn, len(got), len(want), drawn)
			}
		}
	}
}

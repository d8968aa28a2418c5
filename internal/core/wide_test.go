package core

import (
	"testing"

	"sortnets/internal/eval"
	"sortnets/internal/widevec"
)

// wideTests drains a row stream of n-line vectors.
func wideTests(n int, it eval.RowStream) []widevec.Vec {
	var vs []widevec.Vec
	row := make([]uint64, (n+63)/64)
	for it.NextRow(row) {
		vs = append(vs, widevec.FromWords(n, row))
	}
	return vs
}

func TestMergerWideTestsMatchNarrow(t *testing.T) {
	for n := 2; n <= 14; n += 4 {
		narrow := map[string]bool{}
		it := MergerBinaryTests(n)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			narrow[v.String()] = true
		}
		wide := wideTests(n, MergerWideTests(n))
		for _, v := range wide {
			if !narrow[v.String()] {
				t.Fatalf("n=%d: wide test %s missing from narrow set", n, v)
			}
		}
		if len(wide) != len(narrow) {
			t.Errorf("n=%d: wide %d vs narrow %d", n, len(wide), len(narrow))
		}
	}
}

func TestSelectorWideTestsMatchNarrow(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{6, 1}, {8, 2}, {10, 3}, {5, 5}} {
		narrow := map[string]bool{}
		it := SelectorBinaryTests(tc.n, tc.k)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			narrow[v.String()] = true
		}
		wide := wideTests(tc.n, SelectorWideTests(tc.n, tc.k))
		for _, v := range wide {
			if !narrow[v.String()] {
				t.Fatalf("n=%d k=%d: wide test %s missing from narrow set", tc.n, tc.k, v)
			}
			if v.Zeros() > tc.k || v.IsSorted() {
				t.Fatalf("n=%d k=%d: invalid wide test %s", tc.n, tc.k, v)
			}
		}
		if len(wide) != len(narrow) {
			t.Errorf("n=%d k=%d: wide %d vs narrow %d", tc.n, tc.k, len(wide), len(narrow))
		}
	}
}

func TestCountWide(t *testing.T) {
	if got := CountWide(8, MergerWideTests(8)); got != 16 {
		t.Errorf("CountWide = %d, want 16", got)
	}
}

func TestWidePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("odd merger", func() { MergerWideTests(7) })
	mustPanic("selector k=0", func() { SelectorWideTests(8, 0) })
	mustPanic("selector k>n", func() { SelectorWideTests(8, 9) })
}

func TestSelectorWideTestsBeyond64Lines(t *testing.T) {
	// Spot-check the wide-only regime: n=70, k=1 has exactly 69
	// tests (70 single-zero strings minus the sorted 0·1⁶⁹), the zero
	// on lines 1..69 in order, across the word boundary at line 64.
	wide := wideTests(70, SelectorWideTests(70, 1))
	for i, v := range wide {
		if v.N() != 70 || v.Zeros() != 1 || v.Bit(i+1) != 0 {
			t.Fatalf("bad test %d: %s", i, v)
		}
	}
	if len(wide) != 69 {
		t.Errorf("n=70 k=1: %d tests, want 69", len(wide))
	}
}

// TestMergerWideTestsBeyond64Lines: at n = 130 every test is
// 0^(h−i) 1^i over 0^k 1^(h−k), i and k in stream order, its ones
// spanning all three row words.
func TestMergerWideTestsBeyond64Lines(t *testing.T) {
	const n, h = 130, 65
	wide := wideTests(n, MergerWideTests(n))
	if len(wide) != h*h {
		t.Fatalf("%d tests, want %d", len(wide), h*h)
	}
	for j, v := range wide {
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

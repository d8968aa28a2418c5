package widevec

import (
	"strings"
	"testing"
)

// fromString builds a vector from '0'/'1' runes, line 0 first.
func fromString(s string) Vec {
	words := make([]uint64, (len(s)+63)/64)
	for i := range s {
		if s[i] == '1' {
			words[i>>6] |= 1 << uint(i&63)
		}
	}
	return FromWords(len(s), words)
}

func TestRoundTrip(t *testing.T) {
	for _, s := range []string{"", "0", "1", "0101", strings.Repeat("10", 100)} {
		v := fromString(s)
		if v.String() != s || v.N() != len(s) {
			t.Errorf("round trip of %d-bit vector failed", len(s))
		}
	}
}

// TestFromWordsAcrossWordBoundaries: line i is bit i&63 of word i>>6,
// and FromWords copies the words it reads.
func TestFromWordsAcrossWordBoundaries(t *testing.T) {
	for _, i := range []int{0, 63, 64, 65, 127, 128, 199} {
		words := make([]uint64, 4)
		words[i>>6] = 1 << uint(i&63)
		v := FromWords(200, words)
		words[i>>6] = 0
		if v.Ones() != 1 || v.Bit(i) != 1 {
			t.Fatalf("bit %d set: reads %s", i, v)
		}
	}
}

func TestOnesZeros(t *testing.T) {
	v := fromString(strings.Repeat("011", 50)) // 150 bits, 100 ones
	if v.Ones() != 100 || v.Zeros() != 50 {
		t.Errorf("ones/zeros = %d/%d", v.Ones(), v.Zeros())
	}
}

func TestIsSortedWide(t *testing.T) {
	sorted := strings.Repeat("0", 177) + strings.Repeat("1", 123)
	if !fromString(sorted).IsSorted() {
		t.Error("0^177 1^123 not sorted")
	}
	if fromString("1" + sorted[1:]).IsSorted() {
		t.Error("1 at the top should unsort")
	}
	if !New(100).IsSorted() {
		t.Error("all zeros sorted")
	}
}

func TestEqual(t *testing.T) {
	a := fromString(strings.Repeat("0", 125) + "11111")
	if !a.Equal(fromString(strings.Repeat("0", 125) + "11111")) {
		t.Error("equal vectors unequal")
	}
	if a.Equal(fromString(strings.Repeat("0", 124)+"111111")) || a.Equal(fromString(strings.Repeat("0", 126)+"11111")) {
		t.Error("unequal vectors equal")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative", func() { New(-1) })
	mustPanic("too wide", func() { New(MaxN + 1) })
	mustPanic("bit range", func() { New(5).Bit(5) })
	mustPanic("short words", func() { FromWords(65, make([]uint64, 1)) })
}

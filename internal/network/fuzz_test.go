package network

import (
	"slices"
	"testing"
)

// FuzzParse exercises the text-format parser: it must agree with
// parseReference on every input — the same network, or the same error
// text — and every accepted network must validate and round-trip
// through its Format rendering. The seeds cover signs, leading zeros,
// out-of-range numbers and the Unicode spaces strings.TrimSpace strips.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"n=4: [1,3][2,4][1,2][3,4]",
		"n=2:",
		"[1,2]",
		"n=0:",
		"n=4 [1,2]",
		"n=x: [1,2]",
		"[2,1]",
		"[1,2][",
		"[1]",
		"[1,2,3]",
		"[,]",
		"[1,]",
		"[]",
		"[ 1 , 64 ]",
		"n=100000000: [1,2]",
		"n=-3: [1,2]",
		"n=+3: [+1,+3]",
		"[-1,2]",
		"n=004: [01,002][003,0004]",
		"[1,99999999999999999999]",
		"n=99999999999999999999: [1,2]",
		"n=4: [1,9223372036854775807]",
		"\u00a0n=4:\u3000[1,2]\u2003[3,4]\u0085",
		"[\u20281,\u20292][\u205f3,\u16804]",
		"n=\u202f4\u00a0: [1,2]",
		"n=4: [1,2]\ufeff[3,4]",
		"[[1,2]",
		"[1,2]]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w, err := Parse(s)
		ref, refErr := parseReference(s)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Parse(%q) error %v, reference error %v", s, err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("Parse(%q) error text differs:\n got: %s\nwant: %s", s, err, refErr)
			}
			return
		}
		if w.N != ref.N || !slices.Equal(w.Comps, ref.Comps) {
			t.Fatalf("Parse(%q) = %s, reference %s", s, w.Format(), ref.Format())
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted invalid network: %v", s, err)
		}
		again, err := Parse(w.Format())
		if err != nil {
			t.Fatalf("Format(%q) does not re-parse: %v", s, err)
		}
		if again.N != w.N || !slices.Equal(again.Comps, w.Comps) {
			t.Fatalf("round trip changed %q", s)
		}
	})
}

// FuzzJSON exercises the JSON decoder the same way.
func FuzzJSON(f *testing.F) {
	seeds := []string{
		`{"lines":4,"comparators":[[1,3],[2,4]]}`,
		`{"lines":2,"comparators":[]}`,
		`{"lines":2,"comparators":[[2,1]]}`,
		`{"lines":-1}`,
		`{}`,
		`[]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Network
		if err := w.UnmarshalJSON(data); err != nil {
			return
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("UnmarshalJSON accepted invalid network from %q: %v", data, err)
		}
	})
}

package sortnets

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The wire codec's contract is byte identity with encoding/json on
// the encode side, and accept/reject + value identity on the decode
// side. These tests enforce it differentially: every assertion runs
// the hand-rolled path and the reflection path on the same value and
// compares.

// trickyStrings exercises every escaping branch: HTML-sensitive
// runes, control characters, named escapes, U+2028/U+2029, multi-byte
// UTF-8, and invalid UTF-8 (which encoding/json replaces with U+FFFD).
var trickyStrings = []string{
	"",
	"plain",
	`with "quotes" and \backslash`,
	"<script>&amp;</script>",
	"tabs\tand\nnewlines\rand\x00nul\x1fctrl",
	"line sep \u2028 and para sep \u2029",
	"ünïcödé ⊕ ∀x∃y 网络",
	"\xff\xfe invalid utf8 \xc3\x28",
	"\xed\xa0\x80 lone surrogate bytes",
	"back\bform\ffeed",
	"emoji 🙂 pair",
}

func trickyString(rng *rand.Rand) string {
	return trickyStrings[rng.Intn(len(trickyStrings))]
}

func randomRequest(rng *rand.Rand) Request {
	r := Request{}
	if rng.Intn(2) == 0 {
		r.ID = trickyString(rng)
	}
	switch rng.Intn(4) {
	case 0:
		r.Op = "verify"
	case 1:
		r.Op = "faults"
	}
	if rng.Intn(3) != 0 {
		r.Network = "[(0,1),(2,3)]"
	}
	r.Lines = rng.Intn(5)
	if rng.Intn(3) == 0 {
		r.Comparators = make([][2]int, rng.Intn(4))
		for i := range r.Comparators {
			r.Comparators[i] = [2]int{rng.Intn(8) - 2, rng.Intn(8)}
		}
	}
	if rng.Intn(2) == 0 {
		r.Property = "selector"
		r.K = rng.Intn(4)
	}
	r.Exhaustive = rng.Intn(2) == 0
	if rng.Intn(3) == 0 {
		r.Mode = "by-golden"
	}
	r.Exact = rng.Intn(2) == 0
	return r
}

func randomVerdict(rng *rand.Rand) Verdict {
	v := Verdict{
		Op:       "verify",
		Digest:   "sha256:abc123",
		Property: "sorter",
	}
	if rng.Intn(2) == 0 {
		v.ID = trickyString(rng)
	}
	switch rng.Intn(4) {
	case 0, 1:
		v.Check = &CheckVerdict{
			Exhaustive:     rng.Intn(2) == 0,
			Holds:          rng.Intn(2) == 0,
			TestsRun:       rng.Intn(1 << 20),
			Counterexample: trickyString(rng),
			Output:         trickyString(rng),
		}
	case 2:
		v.Faults = &FaultsVerdict{
			Mode:       "by-property",
			Faults:     rng.Intn(100),
			Detectable: rng.Intn(100),
			Detected:   rng.Intn(100),
			Coverage:   []float64{0, 1, 0.5, 1.0 / 3.0, 0.9999999999999, 2e-7, 3e21, -0.25, 123456789.125}[rng.Intn(9)],
		}
	case 3:
		m := &MinsetVerdict{
			Mode:       "by-golden",
			Faults:     rng.Intn(100),
			Detectable: rng.Intn(100),
			Detected:   rng.Intn(100),
			FullTests:  rng.Intn(1000),
			Size:       rng.Intn(50),
			Exact:      rng.Intn(2) == 0,
		}
		switch rng.Intn(3) {
		case 0: // nil → JSON null
		case 1:
			m.Tests = []string{}
		case 2:
			m.Tests = []string{trickyString(rng), "0101", trickyString(rng)}
		}
		v.Minset = m
	}
	return v
}

func randomBatchVerdict(rng *rand.Rand) BatchVerdict {
	bv := BatchVerdict{}
	if rng.Intn(2) == 0 {
		bv.ID = trickyString(rng)
	}
	if rng.Intn(3) != 0 {
		v := randomVerdict(rng)
		bv.Verdict = &v
	} else {
		bv.Error = &RequestError{Status: 400 + rng.Intn(100), Msg: trickyString(rng), RetryAfter: rng.Intn(3)}
	}
	if rng.Intn(2) == 0 {
		bv.Source = []string{"hit", "miss", "coalesced"}[rng.Intn(3)]
	}
	return bv
}

// TestAppendRequestMatchesJSON / TestAppendVerdictMatchesJSON /
// TestAppendBatchVerdictMatchesJSON: the append encoders must emit
// the exact bytes json.Marshal emits, over randomized structs that
// hit every omitempty branch and every string-escaping branch.
func TestAppendRequestMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		r := randomRequest(rng)
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendRequest(nil, &r)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s\nreq %+v", trial, got, want, r)
		}
	}
}

func TestAppendVerdictMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		v := randomVerdict(rng)
		want, err := json.Marshal(&v)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendVerdict(nil, &v)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s\nverdict %+v", trial, got, want, v)
		}
	}
}

func TestAppendBatchVerdictMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 500; trial++ {
		bv := randomBatchVerdict(rng)
		want, err := json.Marshal(&bv)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendBatchVerdict(nil, &bv)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s\nbv %+v", trial, got, want, bv)
		}
	}
}

// refUnmarshalRequest is the reference strict decode: the exact
// json.Decoder + DisallowUnknownFields + trailing-token check the
// serve layer used before the hand-rolled decoder.
func refUnmarshalRequest(data []byte, r *Request) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(r); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// requestLines is a corpus of hand-picked request lines covering the
// decoder's decision space: case-folded keys, duplicate keys, nulls,
// fixed-array raggedness, unknown fields, numbers that are and are
// not integers, and plain syntax errors.
var requestLines = []string{
	`{}`,
	`null`,
	`  {"op":"verify","network":"[(0,1)]"}  `,
	`{"OP":"verify","NetWork":"[(0,1)]","LINES":4}`,
	`{"op":"verify","op":"faults"}`,
	`{"op":null,"lines":null,"comparators":null,"exhaustive":null}`,
	`{"comparators":[[1,2],[3,4]]}`,
	`{"comparators":[]}`,
	`{"comparators":[[1],[3,4,5,6]]}`,
	`{"comparators":[null,[1,2]]}`,
	`{"lines":0}`,
	`{"lines":-3}`,
	`{"lines":1.5}`,
	`{"lines":1e3}`,
	`{"lines":01}`,
	`{"lines":9223372036854775808}`,
	`{"k":"2"}`,
	`{"exhaustive":true,"exact":false}`,
	`{"exhaustive":"yes"}`,
	`{"unknown":1}`,
	`{"id":"\u0041\u00e9\ud83d\ude00\u2028"}`,
	`{"id":"\ud800"}`,
	`{"id":"\ud800\udc00"}`,
	`{"id":"\udc00\ud800"}`,
	`{"id":"bad escape \q"}`,
	`{"id":"unterminated`,
	`{"id":"ctrl ` + "\x01" + ` byte"}`,
	`{"id":"raw ` + "\xff" + ` utf8"}`,
	`{"op":"verify"} trailing`,
	`{"op":"verify"}{"op":"verify"}`,
	`{"op":"verify",}`,
	`{"op" "verify"}`,
	`[1,2]`,
	`123`,
	`"just a string"`,
	`true`,
	``,
	`   `,
	`{"network":"[(0,1)]","lines":2,"property":"merger","k":3,"mode":"by-property","exact":true,"exhaustive":true,"id":"x","op":"minset"}`,
}

func TestUnmarshalRequestLineMatchesJSON(t *testing.T) {
	check := func(t *testing.T, line []byte) {
		var got, want Request
		gotErr := UnmarshalRequestLine(line, &got)
		wantErr := refUnmarshalRequest(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("line %q: wire err %v, encoding/json err %v", line, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("line %q:\n wire %+v\n json %+v", line, got, want)
		}
	}
	for _, line := range requestLines {
		check(t, []byte(line))
	}
	// Round-trip: anything AppendRequest emits must decode to the
	// identical struct (modulo nil/empty comparators, which omitempty
	// collapses — skip those).
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		r := randomRequest(rng)
		if r.Comparators != nil && len(r.Comparators) == 0 {
			r.Comparators = nil
		}
		check(t, AppendRequest(nil, &r))
	}
}

// TestUnmarshalRequestLineResetsTarget: a pooled Request carrying
// stale state must come out as if freshly declared.
func TestUnmarshalRequestLineResetsTarget(t *testing.T) {
	stale := Request{ID: "old", Op: "faults", Lines: 9, Comparators: [][2]int{{1, 2}}, Exact: true}
	if err := UnmarshalRequestLine([]byte(`{"op":"verify"}`), &stale); err != nil {
		t.Fatal(err)
	}
	if want := (Request{Op: "verify"}); !reflect.DeepEqual(stale, want) {
		t.Fatalf("stale fields survived: %+v", stale)
	}
}

// batchVerdictLines covers the lenient decoder: unknown fields must
// be skipped (not rejected), nested nulls must nil out pointers, and
// syntax errors must still be errors.
var batchVerdictLines = []string{
	`{}`,
	`null`,
	`{"id":"a","verdict":{"op":"verify","digest":"d","property":"sorter","check":{"holds":true,"testsRun":12}}}`,
	`{"verdict":{"op":"verify","check":{"holds":true,"testsRun":1,"future_field":[1,{"x":2}]}},"lane":7}`,
	`{"verdict":null,"error":null}`,
	`{"error":{"status":422,"error":"tangled"}}`,
	`{"error":{"status":422,"error":"tangled","hint":"untangle"}}`,
	`{"verdict":{"op":"faults","faults":{"mode":"by-property","faults":3,"detectable":2,"detected":1,"coverage":0.5}}}`,
	`{"verdict":{"op":"faults","faults":{"coverage":5e-1}}}`,
	`{"verdict":{"op":"minset","minset":{"mode":"m","tests":null}}}`,
	`{"verdict":{"op":"minset","minset":{"tests":[]}}}`,
	`{"verdict":{"op":"minset","minset":{"tests":["01","10"],"exact":true,"size":2}}}`,
	`{"source":"hit","id":"z"}`,
	`{"Source":"HIT","ID":"case"}`,
	`{"verdict":{"check":{"testsRun":2.5}}}`,
	`{"verdict":[1]}`,
	`{"verdict":{"check":{"holds":true}}} extra`,
	`{"error":{"status":"422"}}`,
	``,
	`{"verdict":{"id":"vid","op":"o","digest":"g","property":"p"}}`,
}

func TestUnmarshalBatchVerdictLineMatchesJSON(t *testing.T) {
	check := func(t *testing.T, line []byte) {
		var got, want BatchVerdict
		gotErr := UnmarshalBatchVerdictLine(line, &got)
		wantErr := json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("line %q: wire err %v, encoding/json err %v", line, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("line %q:\n wire %+v\n json %+v", line, got, want)
		}
	}
	for _, line := range batchVerdictLines {
		check(t, []byte(line))
	}
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 300; trial++ {
		bv := randomBatchVerdict(rng)
		check(t, AppendBatchVerdict(nil, &bv))
	}
}

// FuzzWireRequest: on arbitrary bytes, the strict decoder must agree
// with the json.Decoder reference on accept/reject, and on the decoded
// struct whenever both accept. (Error text may differ; decisions and
// values may not.)
func FuzzWireRequest(f *testing.F) {
	for _, line := range requestLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want Request
		gotErr := UnmarshalRequestLine(line, &got)
		wantErr := refUnmarshalRequest(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject diverges on %q: wire %v, encoding/json %v", line, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("values diverge on %q:\n wire %+v\n json %+v", line, got, want)
		}
	})
}

// FuzzWireBatchVerdict: the lenient decoder vs json.Unmarshal on
// arbitrary bytes, plus encoder round-trip identity whenever the
// reference accepts the line.
func FuzzWireBatchVerdict(f *testing.F) {
	for _, line := range batchVerdictLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want BatchVerdict
		gotErr := UnmarshalBatchVerdictLine(line, &got)
		wantErr := json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject diverges on %q: wire %v, encoding/json %v", line, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("values diverge on %q:\n wire %+v\n json %+v", line, got, want)
		}
		// Encode both decodes; the wire encoder must match json.Marshal
		// on whatever struct came out.
		wantBytes, err := json.Marshal(&want)
		if err != nil {
			return
		}
		if gotBytes := AppendBatchVerdict(nil, &got); !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("re-encode diverges on %q:\n wire %s\n json %s", line, gotBytes, wantBytes)
		}
	})
}

// TestMarshalVerdictMatchesJSON pins the public serve-path contract:
// MarshalVerdict (now the append encoder) must still emit the exact
// bytes json.Marshal would.
func TestMarshalVerdictMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		v := randomVerdict(rng)
		want, err := json.Marshal(&v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalVerdict(&v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// fillExported sets every exported field of the value v, recursing
// through structs and through pointers (left nil one time in four)
// and drawing every other field from testing/quick. quick.Value alone
// cannot stand in: its size budget leaves every pointer two levels
// down nil, so it never sets Verdict.Check.
func fillExported(t *testing.T, rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if rng.Intn(4) == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fillExported(t, rng, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillExported(t, rng, v.Field(i))
			}
		}
	default:
		leaf, ok := quick.Value(v.Type(), rng)
		if !ok {
			t.Fatalf("testing/quick cannot generate %s", v.Type())
		}
		v.Set(leaf)
	}
}

// TestWireCodecCoversEveryField is the codec's completeness check:
// with every exported field of Request, Verdict and BatchVerdict set,
// nested sections included, a field the hand-rolled codec does not
// know shows up as a byte difference from json.Marshal on encode, or
// as a value difference from encoding/json when decoding
// json.Marshal's bytes. The randomized tests above draw from
// hand-picked shapes, so they pass a new field by never setting it.
func TestWireCodecCoversEveryField(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for trial := 0; trial < 5000; trial++ {
		var r Request
		var v Verdict
		var bv BatchVerdict
		for _, p := range []any{&r, &v, &bv} {
			fillExported(t, rng, reflect.ValueOf(p).Elem())
		}
		rJSON, vJSON, bvJSON := marshal(&r), marshal(&v), marshal(&bv)
		for _, enc := range []struct {
			name      string
			got, want []byte
		}{
			{"AppendRequest", AppendRequest(nil, &r), rJSON},
			{"AppendVerdict", AppendVerdict(nil, &v), vJSON},
			{"AppendBatchVerdict", AppendBatchVerdict(nil, &bv), bvJSON},
		} {
			if !bytes.Equal(enc.got, enc.want) {
				t.Fatalf("trial %d: %s diverges from json.Marshal:\n got %s\nwant %s", trial, enc.name, enc.got, enc.want)
			}
		}

		var gotR, wantR Request
		gotErr, wantErr := UnmarshalRequestLine(rJSON, &gotR), refUnmarshalRequest(rJSON, &wantR)
		if gotErr != nil || wantErr != nil || !reflect.DeepEqual(gotR, wantR) {
			t.Fatalf("trial %d: request %s\n wire %+v (%v)\n json %+v (%v)", trial, rJSON, gotR, gotErr, wantR, wantErr)
		}
		var gotBV, wantBV BatchVerdict
		gotErr, wantErr = UnmarshalBatchVerdictLine(bvJSON, &gotBV), json.Unmarshal(bvJSON, &wantBV)
		if gotErr != nil || wantErr != nil || !reflect.DeepEqual(gotBV, wantBV) {
			t.Fatalf("trial %d: batch verdict %s\n wire %+v (%v)\n json %+v (%v)", trial, bvJSON, gotBV, gotErr, wantBV, wantErr)
		}
	}
}

package eval

import (
	"slices"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// FuzzEngine is the differential fuzz target for the compiled engine.
// On random networks and random inputs, every compiled path — the
// scalar Apply, the transpose/block path behind Run (sequential and
// pooled), and the wholesale-loading RunUniverse — must agree
// bit-for-bit with the scalar reference evaluator network.ApplyVec,
// which shares no code with the engine's batch machinery. The same
// bytes, read as (opcode, line, line) triples, also build an impure
// program over all eight opcodes, whose block paths must agree with
// its scalar interpreter Program.Apply. For n ≤ 10 both also run the
// sorter span and the universe. Both byte strings, read as edits to
// the network, are faults the fault pass must judge exactly like
// their scalar reference programs. A wide leg reads the bytes again
// as a network of 65..200 lines and rows derived from the vector
// bytes, and RunWideCtx must match the scalar wide reference
// applyComparators.
func FuzzEngine(f *testing.F) {
	f.Add(byte(2), []byte{0, 1}, []byte{1})
	f.Add(byte(4), []byte{0, 1, 2, 3, 0, 2, 1, 3, 1, 2}, []byte{5, 10, 3})
	f.Add(byte(16), []byte{0, 15, 7, 8, 3, 12}, []byte{0xff, 0x0f, 0xf0, 0xaa})
	f.Add(byte(6), []byte{}, []byte{})
	f.Add(byte(130), []byte{0, 129, 64, 65, 63, 64, 127, 128, 1, 130}, []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(byte(255), []byte{199, 0, 100, 150, 3, 70, 64, 192}, []byte{0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, nByte byte, compBytes, vecBytes []byte) {
		n := 2 + int(nByte)%15 // 2..16 lines
		w := network.New(n)
		for i := 0; i+1 < len(compBytes) && w.Size() < 128; i += 2 {
			a := int(compBytes[i]) % n
			b := int(compBytes[i+1]) % n
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			w.AddPair(a, b)
		}
		prog := Compile(w)

		// Inputs: every byte pair of vecBytes is one packed vector,
		// plus the all-zero / all-one edges. Duplicates are fine — the
		// engine must handle repeated lanes.
		mask := uint64(1)<<uint(n) - 1
		vecs := []bitvec.Vec{{N: n, Bits: 0}, {N: n, Bits: mask}}
		for i := 0; i+1 < len(vecBytes) && len(vecs) < 600; i += 2 {
			bits := (uint64(vecBytes[i])<<8 | uint64(vecBytes[i+1])) & mask
			vecs = append(vecs, bitvec.Vec{N: n, Bits: bits})
		}

		// Scalar compiled path vs scalar reference.
		for _, v := range vecs {
			if got, want := prog.Apply(v), w.ApplyVec(v); got != want {
				t.Fatalf("Apply(%s) = %s, reference %s (net %s)", v, got, want, w.Format())
			}
		}
		checkBlockPaths(t, prog, vecs, w.ApplyVec, w.Format())
		impure := NewProgram(n, fuzzOps(n, compBytes))
		checkBlockPaths(t, impure, vecs, impure.Apply, "impure program")
		checkFaultPass(t, w, vecs, [][]Edit{nil, fuzzEdits(w, compBytes), fuzzEdits(w, vecBytes)}, "fuzzed faults")
		checkWidePaths(t, 65+int(nByte)*135/255, compBytes, vecBytes)
	})
}

// checkWidePaths builds a network on n lines from compBytes and one
// row per byte pair of vecBytes (the pair seeds a splitmix64 stream
// filling the row), plus the all-zero and all-one rows, and checks
// RunWideCtx against the scalar reference: at one worker the sorted
// verdict equals it field for field, and at one and two workers no
// lane's output differs from it.
func checkWidePaths(t *testing.T, n int, compBytes, vecBytes []byte) {
	t.Helper()
	w := network.New(n)
	for i := 0; i+1 < len(compBytes) && w.Size() < 256; i++ {
		a, b := int(compBytes[i])%n, int(compBytes[i+1])%n
		if a != b {
			w.AddPair(min(a, b), max(a, b))
		}
	}
	R := rowWords(n)
	ones := make([]uint64, R)
	for i := 0; i < n; i++ {
		ones[i>>6] |= 1 << uint(i&63)
	}
	rows := [][]uint64{make([]uint64, R), ones}
	for i := 0; i+1 < len(vecBytes) && len(rows) < 600; i += 2 {
		x := uint64(vecBytes[i])<<8 | uint64(vecBytes[i+1])
		row := make([]uint64, R)
		for j := range row {
			x += 0x9e3779b97f4a7c15
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			row[j] = (z ^ z>>31) & ones[j]
		}
		rows = append(rows, row)
	}
	prog := Compile(w)
	want := wideScalarRun(w, rows, func(_, out []uint64) bool { return sortedRow(n, out) })
	if got := runWide(t, prog, 1, rows, SortedJudge()); !sameWide(got, want) {
		t.Fatalf("n=%d: RunWideCtx %v, reference %v (net %s)", n, got, want, w.Format())
	}
	same := rowJudge(func(in, out []uint64) bool { return slices.Equal(out, applyComparators(in, w.Comps)) })
	for _, workers := range []int{1, 2} {
		if v := runWide(t, prog, workers, rows, same); !v.Holds {
			t.Fatalf("n=%d, %d workers: wide block path diverges from reference on %s (net %s)", n, workers, v.In, w.Format())
		}
	}
}

// fuzzOps reads bytes as (opcode, line, line) triples into a valid op
// sequence over all eight opcodes.
func fuzzOps(n int, raw []byte) []Op {
	var ops []Op
	for i := 0; i+2 < len(raw) && len(ops) < 128; i += 3 {
		a, b := int(raw[i+1])%n, int(raw[i+2])%n
		if a == b {
			b = (a + 1) % n
		}
		if a > b {
			a, b = b, a
		}
		ops = append(ops, Op{Kind: OpKind(raw[i] % 8), A: uint16(a), B: uint16(b)})
	}
	return ops
}

// fuzzEdits reads bytes as (opcode, line, line) triples into a
// fault's edits to w, in firing order: a comparator-shaped opcode
// replaces the comparator the second byte names, on its own lines; a
// clamp or short is inserted before the comparator the third byte
// names, or at the end.
func fuzzEdits(w *network.Network, raw []byte) []Edit {
	n, C := w.N, len(w.Comps)
	var edits []Edit
	for i := 0; i+2 < len(raw) && len(edits) < 16; i += 3 {
		kind := OpKind(raw[i] % 8)
		if kind <= OpRevCmp {
			if C > 0 {
				at := int(raw[i+1]) % C
				c := w.Comps[at]
				edits = append(edits, Edit{At: int32(at), Op: Op{Kind: kind, A: uint16(c.A), B: uint16(c.B)}})
			}
			continue
		}
		a, b := int(raw[i+1])%n, int(raw[i+2])%n
		if a == b {
			b = (a + 1) % n
		}
		edits = append(edits, Edit{At: int32(int(raw[i+2]) % (C + 1)), Op: Op{Kind: kind, A: uint16(min(a, b)), B: uint16(max(a, b))}})
	}
	return orderEdits(edits)
}

// checkBlockPaths drives prog's block paths against ref, its scalar
// reference. A judge that rejects any lane whose engine output differs
// from the reference output forces Run to exercise the transpose +
// word-parallel evaluation and prove it equals the reference on every
// streamed lane; the vector count is rarely a multiple of 64, so the
// final blocks are ragged on almost every input. RunUniverse (kept to small n so the 2ⁿ sweep stays cheap)
// must report the first unsorted output of a reference scan, and so
// must Run over the sorter span, the non-sorted words loaded
// wholesale.
func checkBlockPaths(t *testing.T, prog *Program, vecs []bitvec.Vec, ref func(bitvec.Vec) bitvec.Vec, desc string) {
	t.Helper()
	differential := PerLaneJudge(func(in, out bitvec.Vec) bool { return out == ref(in) })
	for _, workers := range []int{1, 2} {
		if v := New(prog, workers).Run(bitvec.Slice(vecs), differential); !v.Holds {
			t.Fatalf("%d-worker block path diverges from reference on %s: engine %s, reference %s (%s)",
				workers, v.In, v.Out, ref(v.In), desc)
		}
	}
	n := prog.N()
	if n > 10 {
		return
	}
	want := Verdict{Holds: true, TestsRun: bitvec.Universe(n)}
	for x := 0; x < bitvec.Universe(n); x++ {
		in := bitvec.New(n, uint64(x))
		if out := ref(in); !out.IsSorted() {
			want = Verdict{Holds: false, TestsRun: x + 1, In: in, Out: out}
			break
		}
	}
	if got := New(prog, 1).RunUniverse(SortedJudge()); got != want {
		t.Fatalf("RunUniverse %+v, reference %+v (%s)", got, want, desc)
	}
	if v := New(prog, 1).RunUniverse(differential); !v.Holds {
		t.Fatalf("RunUniverse block path diverges from reference on %s (%s)", v.In, desc)
	}

	// The sorter span loads the non-sorted words wholesale; it must
	// report the first unsorted output of a scan of exactly those.
	want = Verdict{Holds: true, TestsRun: bitvec.Universe(n) - n - 1}
	for x, pos := 0, 0; x < bitvec.Universe(n); x++ {
		in := bitvec.New(n, uint64(x))
		if in.IsSorted() {
			continue
		}
		pos++
		if out := ref(in); !out.IsSorted() {
			want = Verdict{Holds: false, TestsRun: pos, In: in, Out: out}
			break
		}
	}
	for _, workers := range []int{1, 2} {
		if got := New(prog, workers).Run(bitvec.NotSorted(bitvec.All(n)), SortedJudge()); got != want {
			t.Fatalf("%d-worker sorter span %+v, reference %+v (%s)", workers, got, want, desc)
		}
	}
}

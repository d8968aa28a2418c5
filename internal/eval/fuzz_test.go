package eval

import (
	"context"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// FuzzEngine is the differential fuzz target for the compiled engine.
// On random networks and random inputs, every compiled path — the
// scalar Apply, the transpose/block path behind Run (sequential and
// pooled) and Sweep, and the wholesale-loading RunUniverse — must
// agree bit-for-bit with the scalar reference evaluator
// network.ApplyVec, which shares no code with the engine's batch
// machinery. The same bytes, read as (opcode, line, line) triples,
// also build an impure program over all eight opcodes — the form the
// fault models lower to — whose block paths must agree with its
// scalar interpreter Program.Apply.
func FuzzEngine(f *testing.F) {
	f.Add(byte(2), []byte{0, 1}, []byte{1})
	f.Add(byte(4), []byte{0, 1, 2, 3, 0, 2, 1, 3, 1, 2}, []byte{5, 10, 3})
	f.Add(byte(16), []byte{0, 15, 7, 8, 3, 12}, []byte{0xff, 0x0f, 0xf0, 0xaa})
	f.Add(byte(6), []byte{}, []byte{})
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
	})
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
		ops = append(ops, Op{Kind: OpKind(raw[i] % 8), A: a, B: b})
	}
	return ops
}

// checkBlockPaths drives prog's block paths against ref, its scalar
// reference. A judge that rejects any lane whose engine output differs
// from the reference output forces Run and Sweep to exercise the
// transpose + word-parallel evaluation and prove it equals the
// reference on every streamed lane; the vector count is rarely a
// multiple of 64, so the final blocks are ragged on almost every
// input. RunUniverse (kept to small n so the 2ⁿ sweep stays cheap)
// must report the first unsorted output of a reference scan.
func checkBlockPaths(t *testing.T, prog *Program, vecs []bitvec.Vec, ref func(bitvec.Vec) bitvec.Vec, desc string) {
	t.Helper()
	differential := PerLaneJudge(func(in, out bitvec.Vec) bool { return out == ref(in) })
	for _, workers := range []int{1, 2} {
		if v := New(prog, workers).Run(bitvec.Slice(vecs), differential); !v.Holds {
			t.Fatalf("%d-worker block path diverges from reference on %s: engine %s, reference %s (%s)",
				workers, v.In, v.Out, ref(v.In), desc)
		}
	}
	SweepCtx(context.Background(), []*Program{prog}, bitvec.Slice(vecs), SortedJudge(), func(_, off int, rejected uint64) {
		for lane := 0; lane < 64 && off+lane < len(vecs); lane++ {
			in := vecs[off+lane]
			if got, want := rejected>>uint(lane)&1 == 1, !ref(in).IsSorted(); got != want {
				t.Fatalf("Sweep rejects %s: %v, reference unsorted %v (%s)", in, got, want, desc)
			}
		}
	})

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
}

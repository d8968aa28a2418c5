package faults

import (
	"fmt"
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/eval"
	"sortnets/internal/network"
)

// refOps is the reference a fault's edits are pinned to: the whole op
// sequence each fault model compiled to before faults became edits —
// every comparator in firing order, a faulty comparator as its mode's
// op, a stuck line's clamp and a bridge's short at the input and after
// every comparator touching their lines.
func refOps(w *network.Network, f Fault) []eval.Op {
	cmp := func(c network.Comparator) eval.Op { return eval.Op{Kind: eval.OpCmp, A: uint16(c.A), B: uint16(c.B)} }
	along := func(op eval.Op, a, b int) []eval.Op {
		ops := []eval.Op{op}
		for _, c := range w.Comps {
			ops = append(ops, cmp(c))
			if c.A == a || c.A == b || c.B == a || c.B == b {
				ops = append(ops, op)
			}
		}
		return ops
	}
	switch f := f.(type) {
	case *CompFault:
		return refOps(w, *f)
	case *StuckLine:
		return refOps(w, *f)
	case *Bridge:
		return refOps(w, *f)
	case CompFault:
		return refOps(w, DoubleComp{First: f, Second: f})
	case DoubleComp:
		var ops []eval.Op
		for i, c := range w.Comps {
			op := cmp(c)
			switch i {
			case f.First.Index:
				op.Kind = opFor(f.First.Mode)
			case f.Second.Index:
				op.Kind = opFor(f.Second.Mode)
			}
			ops = append(ops, op)
		}
		return ops
	case StuckLine:
		clamp := eval.Op{Kind: eval.OpClamp0, A: uint16(f.Line)}
		if f.Value == 1 {
			clamp.Kind = eval.OpClamp1
		}
		return along(clamp, f.Line, f.Line)
	case Bridge:
		short := eval.Op{Kind: eval.OpShortOR, A: uint16(f.A), B: uint16(f.B)}
		if f.Mode == WiredAND {
			short.Kind = eval.OpShortAND
		}
		return along(short, f.A, f.B)
	}
	panic(fmt.Sprintf("refOps: unknown fault %T", f))
}

// editCases returns the faults TestCompileMatchesOpSequences checks on
// w: every Enumerate fault (stuck lines and bridges on lines no
// comparator touches among them, when w leaves some untouched),
// comparator faults out of range on both sides, and double faults in
// both index orders and with equal indices.
func editCases(w *network.Network, rng *rand.Rand) []Fault {
	fs := Enumerate(w)
	C := w.Size()
	for _, i := range []int{-1, C, C + 3} {
		fs = append(fs, CompFault{Index: i, Mode: CompMode(rng.Intn(3))})
	}
	for k := 0; k < 12 && C > 0; k++ {
		i, j := rng.Intn(C), rng.Intn(C)
		if k%4 == 0 {
			j = i
		}
		if k%4 == 1 {
			j = C + rng.Intn(2) // one component out of range
		}
		fs = append(fs, DoubleComp{
			First:  CompFault{Index: i, Mode: CompMode(rng.Intn(3))},
			Second: CompFault{Index: j, Mode: CompMode(rng.Intn(3))},
		})
	}
	return fs
}

// TestCompileMatchesOpSequences: on every input of random networks at
// n = 2..10, each fault's program built from its edits (Compile)
// equals its reference op sequence, and the fault pass detects it on
// exactly the inputs the reference exposes, under both detection
// modes. Half the networks touch only the lower lines, so the upper
// lines' stuck-at and bridge faults sit on lines no comparator
// touches.
func TestCompileMatchesOpSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 2; n <= 10; n++ {
		for trial := 0; trial < 4; trial++ {
			w := network.Random(n, rng.Intn(3*n+1), rng)
			if trial%2 == 1 {
				w = network.New(n)
				for _, c := range network.Random(max(2, n/2), rng.Intn(2*n+1), rng).Comps {
					w.AddPair(c.A, c.B)
				}
			}
			fs := editCases(w, rng)
			universe := bitvec.Collect(bitvec.All(n))
			refs := make([]*eval.Program, len(fs))
			for fi, f := range fs {
				refs[fi] = eval.NewProgram(n, refOps(w, f))
				got := Compile(w, f)
				for _, v := range universe {
					if a, b := got.Apply(v), refs[fi].Apply(v); a != b {
						t.Fatalf("n=%d %s, fault %s: Compile gives %s on %s, reference %s", n, w.Format(), f.Describe(), a, v, b)
					}
				}
			}
			for _, mode := range []DetectMode{ByProperty, ByGolden} {
				m := DetectionMatrix(w, fs, func() bitvec.Iterator { return bitvec.All(n) }, mode)
				for fi, f := range fs {
					detectable := false
					for ti, v := range universe {
						out := refs[fi].Apply(v)
						want := !out.IsSorted()
						if mode == ByGolden {
							want = out != w.ApplyVec(v)
						}
						detectable = detectable || want
						if got := m.Sigs[ti].Contains(fi); got != want {
							t.Fatalf("n=%d %s %s, fault %s on %s: pass %v, reference %v", n, w.Format(), mode, f.Describe(), v, got, want)
						}
					}
					if m.Detectable.Contains(fi) != detectable {
						t.Fatalf("n=%d %s %s, fault %s: detectable %v, reference %v", n, w.Format(), mode, f.Describe(), !detectable, detectable)
					}
				}
			}
		}
	}
}

// TestBadFaultLinesPanic: a stuck line or bridge on lines outside the
// network panics when the fault pass or the program is built, on the
// caller's goroutine.
func TestBadFaultLinesPanic(t *testing.T) {
	w := network.New(4).AddPair(0, 1).AddPair(2, 3)
	for _, f := range []Fault{
		StuckLine{Line: 4, Value: 1},
		StuckLine{Line: -1, Value: 0},
		Bridge{A: 3, B: 4, Mode: WiredOR},
		Bridge{A: 2, B: 2, Mode: WiredAND},
	} {
		for name, run := range map[string]func(){
			"Measure": func() { Measure(w, []Fault{f}, func() bitvec.Iterator { return bitvec.All(4) }, ByProperty) },
			"Compile": func() { Compile(w, f) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of %s did not panic", name, f.Describe())
					}
				}()
				run()
			}()
		}
	}
}

package eval

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// randomEdits returns up to max random edits to w, in firing order:
// comparators replaced by any comparator-shaped op on their own lines
// (at most one replacement each), and clamps and shorts on random
// lines inserted anywhere, the end included. w needs n ≥ 2.
func randomEdits(w *network.Network, max int, rng *rand.Rand) []Edit {
	n, C := w.N, len(w.Comps)
	var edits []Edit
	for k := rng.Intn(max + 1); len(edits) < k; {
		if C > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(C)
			c := w.Comps[i]
			edits = append(edits, Edit{At: int32(i), Op: Op{Kind: OpKind(rng.Intn(4)), A: uint16(c.A), B: uint16(c.B)}})
			continue
		}
		a := rng.Intn(n - 1)
		b := a + 1 + rng.Intn(n-1-a)
		edits = append(edits, Edit{At: int32(rng.Intn(C + 1)), Op: Op{Kind: OpClamp0 + OpKind(rng.Intn(4)), A: uint16(a), B: uint16(b)}})
	}
	return orderEdits(edits)
}

// orderEdits sorts edits into firing order, inserts before the
// replacement at the same comparator, and drops all but the first
// replacement of a comparator.
func orderEdits(edits []Edit) []Edit {
	slices.SortStableFunc(edits, func(x, y Edit) int {
		if x.At != y.At {
			return int(x.At - y.At)
		}
		switch {
		case !x.replaces() && y.replaces():
			return -1
		case x.replaces() && !y.replaces():
			return 1
		}
		return 0
	})
	out := edits[:0]
	for _, e := range edits {
		if k := len(out); k > 0 && e.replaces() && out[k-1].replaces() && out[k-1].At == e.At {
			continue
		}
		out = append(out, e)
	}
	return out
}

// refEditOps is the reference expansion of a fault's edits, by
// comparator position rather than by edit: before comparator i run
// the inserts at i, then its replacement or the comparator itself;
// after the last comparator run the inserts at its count.
func refEditOps(w *network.Network, edits []Edit) []Op {
	var ops []Op
	for i := 0; i <= len(w.Comps); i++ {
		var replaced []Op
		for _, e := range edits {
			switch {
			case int(e.At) != i:
			case e.replaces():
				replaced = append(replaced, e.Op)
			default:
				ops = append(ops, e.Op)
			}
		}
		if i == len(w.Comps) {
			break
		}
		if len(replaced) > 0 {
			ops = append(ops, replaced[0])
		} else {
			c := w.Comps[i]
			ops = append(ops, Op{Kind: OpCmp, A: uint16(c.A), B: uint16(c.B)})
		}
	}
	return ops
}

// goldenJudge rejects the lanes whose outputs differ from the in
// batch, which the fault pass fills with the healthy outputs.
func goldenJudge() Judge {
	return Judge{Rejects: func(healthy, out *network.Batch, bad []uint64) {
		clear(bad)
		for i := 0; i < len(out.Lines); i += out.W {
			for g := range bad {
				bad[g] |= healthy.Lines[i+g] ^ out.Lines[i+g]
			}
		}
	}}
}

// newSet builds the fault set of w over the faults' edit lists.
func newSet(w *network.Network, faults [][]Edit) *FaultSet {
	var edits []Edit
	ends := make([]int, len(faults))
	for i, f := range faults {
		edits = append(edits, f...)
		ends[i] = len(edits)
	}
	return NewFaultSet(w, edits, ends)
}

// checkFaultPass pins the fault pass over w and the faults' edit lists
// to the scalar reference (refEditOps through Program.Apply), under
// the sorted judge and the golden judge: kept in the pass, each fault
// is visited with exactly the lanes the reference rejects, at 64-lane
// aligned stream offsets; dropped at its first visit, each detected
// fault is visited once, in the block of its first rejected test. At
// n ≤ 10 the pass also runs over the universe span, whose lanes are
// its words, and the sorter span, whose holes are never rejected.
// EditProgram must equal the reference on every test.
func checkFaultPass(t *testing.T, w *network.Network, tests []bitvec.Vec, faults [][]Edit, desc string) {
	t.Helper()
	n := w.N
	set := newSet(w, faults)
	all := make([]int, len(faults))
	for i := range all {
		all[i] = i
	}
	refs := make([]*Program, len(faults))
	for f, edits := range faults {
		refs[f] = NewProgram(n, refEditOps(w, edits))
		prog := EditProgram(w, edits)
		for _, v := range tests {
			if got, want := prog.Apply(v), refs[f].Apply(v); got != want {
				t.Fatalf("%s fault %d %v: EditProgram(%s) = %s, reference %s", desc, f, edits, v, got, want)
			}
		}
	}
	judges := []struct {
		name    string
		judge   Judge
		rejects func(in, out bitvec.Vec) bool
	}{
		{"sorted", SortedJudge(), func(_, out bitvec.Vec) bool { return !out.IsSorted() }},
		{"golden", goldenJudge(), func(in, out bitvec.Vec) bool { return out != w.ApplyVec(in) }},
	}
	for _, j := range judges {
		rejected := func(f int, v bitvec.Vec) bool { return j.rejects(v, refs[f].Apply(v)) }
		got := make([][]uint64, len(faults))
		for f := range got {
			got[f] = make([]uint64, (len(tests)+63)/64)
		}
		err := set.RunCtx(context.Background(), all, bitvec.Slice(tests), j.judge, func(f, off int, bad []uint64) bool {
			if off%maxLanes != 0 {
				t.Fatalf("%s %s: fault %d visited at offset %d, not a block boundary", desc, j.name, f, off)
			}
			for g, word := range bad {
				got[f][off/64+g] |= word
			}
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		for f := range faults {
			for i, v := range tests {
				if g, want := got[f][i/64]>>uint(i%64)&1 == 1, rejected(f, v); g != want {
					t.Fatalf("%s %s fault %d %v: test %d (%s) rejected %v, reference %v", desc, j.name, f, faults[f], i, v, g, want)
				}
			}
		}

		visits := make([]int, len(faults))
		if err := set.RunCtx(context.Background(), all, bitvec.Slice(tests), j.judge, func(f, off int, _ []uint64) bool {
			visits[f]++
			first := slices.IndexFunc(tests, func(v bitvec.Vec) bool { return rejected(f, v) })
			if first < 0 || first/maxLanes*maxLanes != off {
				t.Fatalf("%s %s: dropped fault %d visited at offset %d, first rejected test %d", desc, j.name, f, off, first)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for f, k := range visits {
			want := 0
			if slices.ContainsFunc(tests, func(v bitvec.Vec) bool { return rejected(f, v) }) {
				want = 1
			}
			if k != want {
				t.Fatalf("%s %s: dropped fault %d visited %d times, want %d", desc, j.name, f, k, want)
			}
		}

		if n > 10 {
			continue
		}
		universe := bitvec.Collect(bitvec.All(n))
		for f := range got {
			got[f] = make([]uint64, (len(universe)+63)/64)
		}
		if err := set.RunCtx(context.Background(), all, bitvec.All(n), j.judge, func(f, off int, bad []uint64) bool {
			for g, word := range bad {
				got[f][off/64+g] |= word
			}
			return false
		}); err != nil {
			t.Fatal(err)
		}
		for f := range faults {
			for i, v := range universe {
				if g, want := got[f][i/64]>>uint(i%64)&1 == 1, rejected(f, v); g != want {
					t.Fatalf("%s %s universe fault %d %v: %s rejected %v, reference %v", desc, j.name, f, faults[f], v, g, want)
				}
			}
		}
		detected := make([]bool, len(faults))
		if err := set.RunCtx(context.Background(), all, bitvec.NotSorted(bitvec.All(n)), j.judge, func(f, _ int, _ []uint64) bool {
			detected[f] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for f := range faults {
			want := slices.ContainsFunc(universe, func(v bitvec.Vec) bool { return !v.IsSorted() && rejected(f, v) })
			if detected[f] != want {
				t.Fatalf("%s %s sorter span fault %d %v: detected %v, reference %v", desc, j.name, f, faults[f], detected[f], want)
			}
		}
	}
}

// TestFaultPassRunsEachEditRange: each fault of a set runs exactly its
// range of the shared edit buffer — the reference outputs of that
// range alone, empty ranges being the healthy circuit — and the set
// keeps the buffer instead of copying it.
func TestFaultPassRunsEachEditRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 6
	w := randomNet(n, 12, rng)
	faults := make([][]Edit, 8)
	for i := range faults {
		if i%3 != 0 { // every third range stays empty
			faults[i] = randomEdits(w, 6, rng)
		}
	}
	set := newSet(w, faults)
	if len(set.ends) != len(faults) || set.N() != n {
		t.Fatalf("set of %d faults on %d lines, want %d on %d", len(set.ends), set.N(), len(faults), n)
	}
	if edits := set.edits; len(edits) > 0 && &NewFaultSet(w, edits, set.ends).edits[0] != &edits[0] {
		t.Fatal("NewFaultSet copies the edit buffer instead of keeping it")
	}
	checkFaultPass(t, w, bitvec.Collect(bitvec.All(n)), faults, "ranges")
}

// TestFaultPassRejectsBadEdits: edits out of firing order, past the
// circuit or on lines outside it panic when the set or the program is
// built, on the caller's goroutine.
func TestFaultPassRejectsBadEdits(t *testing.T) {
	w := network.New(4).AddPair(0, 1).AddPair(2, 3).AddPair(1, 2)
	clamp := func(at int32, line uint16) Edit { return Edit{At: at, Op: Op{Kind: OpClamp1, A: line}} }
	bypass := func(at int32) Edit {
		c := w.Comps[at]
		return Edit{At: at, Op: Op{Kind: OpNop, A: uint16(c.A), B: uint16(c.B)}}
	}
	for _, c := range []struct {
		name  string
		edits []Edit
	}{
		{"out of order", []Edit{clamp(2, 0), clamp(1, 0)}},
		{"insert after a replacement of its comparator", []Edit{bypass(1), clamp(1, 0)}},
		{"replacement past the circuit", []Edit{{At: 3, Op: Op{Kind: OpSwap, A: 0, B: 1}}}},
		{"insert past the end", []Edit{clamp(4, 0)}},
		{"clamp off the circuit", []Edit{clamp(3, 4)}},
		{"short on one line", []Edit{{At: 0, Op: Op{Kind: OpShortOR, A: 2, B: 2}}}},
	} {
		for _, build := range []func(){
			func() { NewFaultSet(w, c.edits, []int{len(c.edits)}) },
			func() { EditProgram(w, c.edits) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %v was accepted", c.name, c.edits)
					}
				}()
				build()
			}()
		}
	}
	ok := []Edit{clamp(0, 3), bypass(0), clamp(1, 3), clamp(3, 3)}
	NewFaultSet(w, ok, []int{len(ok)})
}

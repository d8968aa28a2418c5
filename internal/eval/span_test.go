package eval

import (
	"context"
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
)

// A span (bitvec.All, or NotSorted of it) loads wholesale: consecutive
// words plus a mask of the holes that are not in the stream. These
// tests hold that load path to the row path, which stages the same
// vectors one by one and transposes them, field for field.

// randomOps is a random op sequence over all eight opcodes on n lines
// (clamps only, at n = 1).
func randomOps(n int, rng *rand.Rand) []Op {
	ops := make([]Op, rng.Intn(3*n+1))
	for i := range ops {
		if n == 1 {
			ops[i] = Op{Kind: OpClamp0 + OpKind(rng.Intn(2))}
			continue
		}
		a := rng.Intn(n - 1)
		ops[i] = Op{Kind: OpKind(rng.Intn(8)), A: uint16(a), B: uint16(a + 1 + rng.Intn(n-1-a))}
	}
	return ops
}

// spanOf returns the universe span of n lines, or its sorter test set.
func spanOf(n int, unsorted bool) bitvec.Iterator {
	if unsorted {
		return bitvec.NotSorted(bitvec.All(n))
	}
	return bitvec.All(n)
}

// TestSpanVerdictsMatchRows: for n = 1..12 (a block is shorter than
// one word below n = 6), random pure networks and random impure
// programs, and every judge shape, Run at one worker and RunMany over
// a span equal the same calls over the span's vectors as a slice, and
// RunUniverse equals Run over the universe's vectors; at 2 and 0
// workers a span verdict equals its one-worker verdict.
func TestSpanVerdictsMatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 12; trial++ {
			prog := Compile(randomNet(n, rng.Intn(5*n), rng))
			switch {
			case trial%3 == 1:
				prog = NewProgram(n, randomOps(n, rng))
			case trial%3 == 2 && n > 1:
				prog = Compile(nearSorter(n, rng))
			}
			other := NewProgram(n, randomOps(n, rng))
			judge, _ := judgeCase(n, trial, rng)
			for _, unsorted := range []bool{false, true} {
				rows := bitvec.Collect(spanOf(n, unsorted))
				want := New(prog, 1).Run(bitvec.Slice(rows), judge)
				for _, workers := range []int{1, 2, 0} {
					if got := New(prog, workers).Run(spanOf(n, unsorted), judge); got != want {
						t.Fatalf("n=%d trial %d unsorted=%v workers=%d: span %+v, rows %+v", n, trial, unsorted, workers, got, want)
					}
				}
				fleet := []*Program{prog, other}
				wantMany := RunMany(fleet, bitvec.Slice(rows), judge)
				for i, got := range RunMany(fleet, spanOf(n, unsorted), judge) {
					if got != wantMany[i] {
						t.Fatalf("n=%d trial %d unsorted=%v program %d: RunMany span %+v, rows %+v", n, trial, unsorted, i, got, wantMany[i])
					}
				}
			}
			want := New(prog, 1).Run(bitvec.Slice(bitvec.Collect(bitvec.All(n))), judge)
			for _, workers := range []int{1, 2, 0} {
				if got := New(prog, workers).RunUniverse(judge); got != want {
					t.Fatalf("n=%d trial %d workers=%d: RunUniverse %+v, rows %+v", n, trial, workers, got, want)
				}
			}
		}
	}
}

// TestSpanPoolMatchesOneWorker: a span long enough for several pool
// slabs, with its only failure in a late slab, reports the same
// verdict at 2 and 0 workers as at one — the slab's position moved to
// the span's stream — for the whole span and for one drawn partway,
// whose first slab starts off a slab boundary.
func TestSpanPoolMatchesOneWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{14, 16} {
		prog := Compile(nearSorter(n, rng))
		for trial := 0; trial < 6; trial++ {
			needle := uint64(rng.Intn(bitvec.Universe(n)))
			judge := PerLaneJudge(func(in, _ bitvec.Vec) bool { return in.Bits != needle })
			if trial%2 == 1 {
				judge = SortedJudge()
			}
			drawn := rng.Intn(5000)
			span := func() bitvec.Iterator {
				it := spanOf(n, trial%3 != 0)
				for range drawn {
					it.Next()
				}
				return it
			}
			want := New(prog, 1).Run(span(), judge)
			for _, workers := range []int{2, 0} {
				if got := New(prog, workers).Run(span(), judge); got != want {
					t.Fatalf("n=%d trial %d workers=%d: pool %+v, one worker %+v", n, trial, workers, got, want)
				}
			}
		}
	}
}

// TestSpanHolesNeverJudged: a judge that rejects only 0ⁿ holds over the
// sorter span, where 0ⁿ is a hole, and fails at test 1 over the
// universe — on every path that loads spans.
func TestSpanHolesNeverJudged(t *testing.T) {
	zero := PerLaneJudge(func(in, _ bitvec.Vec) bool { return in.Bits != 0 })
	for _, n := range []int{1, 3, 6, 9, 13} {
		p := Compile(randomNet(n, 2*n, rand.New(rand.NewSource(int64(n)))))
		tests := bitvec.Universe(n) - n - 1
		for _, workers := range []int{1, 2, 0} {
			if v := New(p, workers).Run(bitvec.NotSorted(bitvec.All(n)), zero); !v.Holds || v.TestsRun != tests {
				t.Fatalf("n=%d workers=%d: sorter span %+v, want Holds after %d tests", n, workers, v, tests)
			}
			v := New(p, workers).Run(bitvec.All(n), zero)
			if want := (Verdict{TestsRun: 1, In: bitvec.New(n, 0), Out: p.Apply(bitvec.New(n, 0))}); v != want {
				t.Fatalf("n=%d workers=%d: universe span %+v, want %+v", n, workers, v, want)
			}
		}
		if vs := RunMany([]*Program{p}, bitvec.NotSorted(bitvec.All(n)), zero); !vs[0].Holds || vs[0].TestsRun != tests {
			t.Fatalf("n=%d: RunMany over the sorter span %+v, want Holds after %d tests", n, vs[0], tests)
		}
	}
}

// TestSpanDrawnPartway: a span drawn partway with Next before the run
// gives the verdict of the vectors it has left, whether the draw
// stopped on a word boundary or inside a word.
func TestSpanDrawnPartway(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{5, 8, 11} {
		for _, drawn := range []int{1, 50, 63, 64, 65, 300} {
			prog := Compile(nearSorter(n, rng))
			judge, _ := judgeCase(n, drawn, rng)
			for _, unsorted := range []bool{false, true} {
				span := func() bitvec.Iterator {
					it := spanOf(n, unsorted)
					for range drawn {
						it.Next()
					}
					return it
				}
				rows := bitvec.Collect(span())
				want := New(prog, 1).Run(bitvec.Slice(rows), judge)
				for _, workers := range []int{1, 2} {
					if got := New(prog, workers).Run(span(), judge); got != want {
						t.Fatalf("n=%d drawn %d unsorted=%v workers=%d: span %+v, rows %+v", n, drawn, unsorted, workers, got, want)
					}
				}
				vs, err := RunManyCtx(context.Background(), []*Program{prog}, span(), judge)
				if err != nil || vs[0] != want {
					t.Fatalf("n=%d drawn %d unsorted=%v: RunMany %+v (%v), rows %+v", n, drawn, unsorted, vs, err, want)
				}
			}
		}
	}
}

package eval

import (
	"context"
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

// streamLengths are chosen so the final block of every path lands on
// each word count 1–4: Run ramps 64 → 128 → 256 lanes (final blocks
// of 1,1,1,2,1,2,3,4,1,4 words here), RunMany and the fault pass run
// 256-lane blocks from the start (1,1,2,3,4,1,2,3,4,3 words). 5000
// spans more than one pool chunk.
var streamLengths = []int{1, 64, 65, 192, 193, 300, 342, 400, 449, 5000}

// scalarRun is the reference the block engine must match: one vector
// at a time through the scalar Program.Apply, judged by the scalar
// acceptance predicate, stopping at the first failure in stream order.
func scalarRun(p *Program, tests []bitvec.Vec, accepts func(in, out bitvec.Vec) bool) Verdict {
	for i, v := range tests {
		if out := p.Apply(v); !accepts(v, out) {
			return Verdict{Holds: false, TestsRun: i + 1, In: v, Out: out}
		}
	}
	return Verdict{Holds: true, TestsRun: len(tests)}
}

func sortedAccepts(_, out bitvec.Vec) bool { return out.IsSorted() }

// randomStream returns length random n-bit vectors.
func randomStream(n, length int, rng *rand.Rand) []bitvec.Vec {
	mask := uint64(1)<<uint(n) - 1
	vs := make([]bitvec.Vec, length)
	for i := range vs {
		vs[i] = bitvec.New(n, rng.Uint64()&mask)
	}
	return vs
}

// nearSorter is a sorter with one comparator dropped: it fails on a
// few inputs only, so its first failure lands anywhere in a stream.
func nearSorter(n int, rng *rand.Rand) *network.Network {
	w := gen.OddEvenMergeSort(n)
	drop := rng.Intn(w.Size() + 1) // == Size keeps the sorter whole
	out := network.New(n)
	for i, c := range w.Comps {
		if i != drop {
			out.AddPair(c.A, c.B)
		}
	}
	return out
}

// judgeCase pairs a judge with its scalar acceptance predicate: the
// devirtualized sorted judge, a per-lane judge (the selector path), or
// a per-lane judge that rejects only one input value, so the first
// failure can sit in any word of any block.
func judgeCase(n, trial int, rng *rand.Rand) (Judge, func(in, out bitvec.Vec) bool) {
	var accepts func(in, out bitvec.Vec) bool
	switch trial % 3 {
	case 0:
		return SortedJudge(), sortedAccepts
	case 1:
		k := 1 + rng.Intn(n)
		accepts = func(in, out bitvec.Vec) bool {
			mask := uint64(1)<<uint(k) - 1
			return out.Bits&mask == in.Sorted().Bits&mask
		}
	default:
		needle := uint64(rng.Intn(bitvec.Universe(n)))
		accepts = func(in, _ bitvec.Vec) bool { return in.Bits != needle }
	}
	return PerLaneJudge(accepts), accepts
}

// TestVerdictsByteIdenticalAcrossWidths: the whole Verdict struct —
// Holds, TestsRun, counterexample in/out — of the sequential Run and
// of RunUniverse must equal the scalar per-vector reference, whatever
// words the blocks carry; the pooled Run must agree on Holds and
// report a genuine counterexample; the fault pass over the network
// and random faults on it must reject exactly the scalar failures.
func TestVerdictsByteIdenticalAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	frng := rand.New(rand.NewSource(14)) // the faults' edits
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(11)
		w := randomNet(n, rng.Intn(5*n), rng)
		if trial%2 == 0 {
			w = nearSorter(n, rng)
		}
		prog := Compile(w)
		judge, accepts := judgeCase(n, trial, rng)

		for _, length := range streamLengths {
			tests := randomStream(n, length, rng)
			want := scalarRun(prog, tests, accepts)
			if got := New(prog, 1).Run(bitvec.Slice(tests), judge); got != want {
				t.Fatalf("trial %d n=%d len=%d: Run %+v, scalar %+v", trial, n, length, got, want)
			}
			got := New(prog, 2).Run(bitvec.Slice(tests), judge)
			if got.Holds != want.Holds || (got.Holds && got.TestsRun != length) ||
				(!got.Holds && (got.Out != prog.Apply(got.In) || accepts(got.In, got.Out))) {
				t.Fatalf("trial %d n=%d len=%d: pooled Run %+v, scalar %+v", trial, n, length, got, want)
			}
			faults := [][]Edit{nil, randomEdits(w, 4, frng), randomEdits(w, 4, frng)}
			checkFaultPass(t, w, tests, faults, "widths")
		}

		wantU := scalarRun(prog, bitvec.Collect(bitvec.All(n)), accepts)
		for _, workers := range []int{1, 2} {
			if got := New(prog, workers).RunUniverse(judge); got != wantU {
				t.Fatalf("trial %d n=%d workers=%d: RunUniverse %+v, scalar %+v", trial, n, workers, got, wantU)
			}
		}
	}
}

// TestRunManyByteIdenticalAcrossWidths: every verdict of the fleet
// pass must equal the scalar per-vector reference for that program,
// at every final-block word count, and a fault pass over as many
// faults must report exactly each fault's scalar failures.
func TestRunManyByteIdenticalAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	frng := rand.New(rand.NewSource(30)) // the fault pass's circuit and edits
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(9)
		progs := make([]*Program, 1+rng.Intn(7))
		for i := range progs {
			if rng.Intn(2) == 0 {
				progs[i] = Compile(nearSorter(n, rng))
			} else {
				progs[i] = Compile(randomNet(n, rng.Intn(4*n), rng))
			}
		}
		judge, accepts := judgeCase(n, trial, rng)
		w := nearSorter(n, frng)
		faults := make([][]Edit, len(progs))
		for i := range faults {
			faults[i] = randomEdits(w, 3, frng)
		}
		for _, length := range streamLengths {
			tests := randomStream(n, length, rng)
			got, err := RunManyCtx(context.Background(), progs, bitvec.Slice(tests), judge)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range progs {
				if want := scalarRun(p, tests, accepts); got[i] != want {
					t.Fatalf("trial %d n=%d len=%d program %d: RunMany %+v, scalar %+v",
						trial, n, length, i, got[i], want)
				}
			}
			checkFaultPass(t, w, tests, faults, "fleet")
		}
	}
}

// cancellingIter cancels its context after yielding `after` vectors,
// then keeps streaming — so the engine observes the cancellation
// mid-stream, between blocks, with lanes already staged.
type cancellingIter struct {
	n      int
	after  int
	count  int
	cancel context.CancelFunc
}

func (c *cancellingIter) Next() (bitvec.Vec, bool) {
	if c.count == c.after {
		c.cancel()
	}
	c.count++
	// An endless stream; the accept-everything judge below keeps the
	// engine running until it observes the cancellation.
	return bitvec.New(c.n, uint64(c.count)%(1<<uint(c.n))), true
}

// TestWideCancelMidBlock: cancellation raised while a block is being
// staged must surface as ctx.Err() with a zero verdict, inside a
// block of each ramp size, on both the sequential and pooled paths.
func TestWideCancelMidBlock(t *testing.T) {
	n := 8
	prog := Compile(randomNet(n, 3*n, rand.New(rand.NewSource(5))))
	accept := PerLaneJudge(func(in, out bitvec.Vec) bool { return true })
	for _, after := range []int{32, 96, 320, 5000} {
		for _, workers := range []int{1, 2} {
			ctx, cancel := context.WithCancel(context.Background())
			it := &cancellingIter{n: n, after: after, cancel: cancel}
			v, err := New(prog, workers).RunCtx(ctx, it, accept)
			cancel()
			if err != context.Canceled {
				t.Fatalf("after %d, %d workers: want context.Canceled, got %v (verdict %+v)", after, workers, err, v)
			}
			if v != (Verdict{}) {
				t.Fatalf("after %d, %d workers: want zero verdict on cancellation, got %+v", after, workers, v)
			}
		}
	}
}

// TestManyCancelMidStream: the multi-program passes over an endless
// stream end only by cancellation — RunManyCtx with nil verdicts, the
// fault pass after the block in which the cancellation was raised.
func TestManyCancelMidStream(t *testing.T) {
	n := 8
	rng := rand.New(rand.NewSource(6))
	progs := []*Program{Compile(randomNet(n, 3*n, rng)), Compile(randomNet(n, 2*n, rng))}
	accept := PerLaneJudge(func(in, out bitvec.Vec) bool { return true })
	for _, after := range []int{32, 300, 5000} {
		ctx, cancel := context.WithCancel(context.Background())
		vs, err := RunManyCtx(ctx, progs, &cancellingIter{n: n, after: after, cancel: cancel}, accept)
		cancel()
		if err != context.Canceled || vs != nil {
			t.Fatalf("after %d: RunManyCtx = (%v, %v), want (nil, context.Canceled)", after, vs, err)
		}
		ctx, cancel = context.WithCancel(context.Background())
		w := randomNet(n, 3*n, rng)
		set := newSet(w, [][]Edit{nil, randomEdits(w, 3, rng)})
		it := &cancellingIter{n: n, after: after, cancel: cancel}
		err = set.RunCtx(ctx, []int{0, 1}, it, accept, func(int, int, []uint64) bool { return false })
		cancel()
		if err != context.Canceled || it.count <= after || it.count > after+maxLanes {
			t.Fatalf("after %d: fault pass drew %d vectors and returned %v, want the cancelling block and context.Canceled", after, it.count, err)
		}
	}
}

// blockShape is one judged block as a recording judge sees it.
type blockShape struct{ W, Lanes int }

// recordingJudge accepts every lane and appends each block's shape.
func recordingJudge(shapes *[]blockShape) Judge {
	return Judge{Rejects: func(_, out *network.Batch, bad []uint64) {
		*shapes = append(*shapes, blockShape{out.W, out.Lanes})
		clear(bad)
	}}
}

// repeat returns count copies of s.
func repeat(s blockShape, count int) []blockShape {
	out := make([]blockShape, count)
	for i := range out {
		out[i] = s
	}
	return out
}

func shapes(parts ...[]blockShape) []blockShape {
	var out []blockShape
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestBlockWidthPolicy pins how blocks size themselves from the
// stream: Run, RunWideCtx and RunUniverse ramp 64 → 128 → 256 lanes
// (1, 2, 4, 4, … words), RunMany and the fault pass start at 256, and
// every last block carries ⌈tail/64⌉ words. 247 and 4083 are the minimal
// sorter test sets for n = 8 and n = 12.
func TestBlockWidthPolicy(t *testing.T) {
	ramp := []blockShape{{1, 64}, {2, 128}}
	runCases := []struct {
		length int
		want   []blockShape
	}{
		{1, []blockShape{{1, 1}}},
		{64, []blockShape{{1, 64}}},
		{65, []blockShape{{1, 64}, {1, 1}}},
		{247, []blockShape{{1, 64}, {2, 128}, {1, 55}}},
		{4083, shapes(ramp, repeat(blockShape{4, 256}, 15), []blockShape{{1, 51}})},
	}
	prog := Compile(gen.OddEvenMergeSort(12))
	tests := nonSorted(12)
	for _, c := range runCases {
		var got []blockShape
		if v := New(prog, 1).Run(bitvec.Slice(tests[:c.length]), recordingJudge(&got)); !v.Holds {
			t.Fatalf("Run over %d vectors failed: %+v", c.length, v)
		}
		checkShapes(t, "Run", c.length, got, c.want)
	}
	wide := Compile(gen.HalfMerger(130))
	rows := randomRows(130, 4083, rand.New(rand.NewSource(3)))
	for _, c := range runCases {
		var got []blockShape
		v, err := New(wide, 1).RunWideCtx(context.Background(), &rowSlice{rows: rows[:c.length]}, recordingJudge(&got))
		if err != nil || !v.Holds {
			t.Fatalf("RunWideCtx over %d rows failed: %v %v", c.length, v, err)
		}
		checkShapes(t, "RunWideCtx", c.length, got, c.want)
	}

	universeCases := []struct {
		n    int
		want []blockShape
	}{
		{4, []blockShape{{1, 16}}},
		{8, shapes(ramp, []blockShape{{1, 64}})},
		{12, shapes(ramp, repeat(blockShape{4, 256}, 15), []blockShape{{1, 64}})},
	}
	for _, c := range universeCases {
		var got []blockShape
		New(Compile(network.New(c.n)), 1).RunUniverse(recordingJudge(&got))
		checkShapes(t, "RunUniverse n", c.n, got, c.want)
	}

	full := []blockShape{{4, 247}}
	var got []blockShape
	set := newSet(gen.OddEvenMergeSort(12), [][]Edit{nil})
	if err := set.RunCtx(context.Background(), []int{0}, bitvec.Slice(tests[:247]), recordingJudge(&got), func(int, int, []uint64) bool { return false }); err != nil {
		t.Fatal(err)
	}
	checkShapes(t, "fault pass", 247, got, full)
	got = nil
	RunMany([]*Program{prog}, bitvec.Slice(tests[:247]), recordingJudge(&got))
	checkShapes(t, "RunMany", 247, got, full)
}

func checkShapes(t *testing.T, path string, size int, got, want []blockShape) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %d: %d blocks %v, want %d %v", path, size, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s %d: block %d is %+v, want %+v (all %v)", path, size, i, got[i], want[i], got)
		}
	}
}

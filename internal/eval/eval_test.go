package eval

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
	"sortnets/internal/widevec"
)

type atomic32 struct{ v atomic.Int32 }

func mustWide(v bitvec.Vec) widevec.Vec {
	w := widevec.New(v.N)
	for i := 0; i < v.N; i++ {
		if v.Bit(i) == 1 {
			w = w.SetBit(i, 1)
		}
	}
	return w
}

func randomNet(n, size int, rng *rand.Rand) *network.Network {
	if n < 2 {
		return network.New(n)
	}
	return network.Random(n, size, rng)
}

func TestTranspose64MatchesSetLane(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		var words [64]uint64
		ref := network.NewBatch(n, 1)
		mask := ^uint64(0)
		if n < 64 {
			mask = uint64(1)<<uint(n) - 1
		}
		for lane := 0; lane < 64; lane++ {
			bits := rng.Uint64() & mask
			words[lane] = bits
			ref.SetLane(lane, bitvec.New(n, bits))
		}
		transpose64(&words)
		for i := 0; i < n; i++ {
			if words[i] != ref.Lines[i] {
				t.Fatalf("n=%d line %d: transpose %016x, SetLane %016x", n, i, words[i], ref.Lines[i])
			}
		}
	}
}

func TestTranspose64Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, orig [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
		orig[i] = a[i]
	}
	transpose64(&a)
	transpose64(&a)
	if a != orig {
		t.Fatal("transpose64 is not an involution")
	}
}

func TestCompiledApplyMatchesNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		w := randomNet(n, rng.Intn(n*n), rng)
		p := Compile(w)
		if !p.Pure() || p.Size() != w.Size() || p.Depth() != w.Depth() {
			t.Fatalf("compiled shape mismatch for %v", w)
		}
		for x := 0; x < bitvec.Universe(n); x++ {
			v := bitvec.New(n, uint64(x))
			if p.Apply(v) != w.ApplyVec(v) {
				t.Fatalf("compiled output diverges on %s for %v", v, w)
			}
		}
	}
}

func TestCompiledApplyIntsMatchesNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		w := randomNet(n, rng.Intn(n*n), rng)
		p := Compile(w)
		in := rng.Perm(n)
		want := w.Apply(in)
		got := append([]int(nil), in...)
		p.ApplyInts(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("int path diverges: %v vs %v", got, want)
			}
		}
	}
}

// TestCompiledBatchMatchesNetworkBatch: the compiled kernels at every
// block word count (one-word, generic and four-word unrolled) must
// match the network's reference batch evaluation word for word.
func TestCompiledBatchMatchesNetworkBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(16)
		w := randomNet(n, rng.Intn(2*n*n), rng)
		p := Compile(w)
		mask := uint64(1)<<uint(n) - 1
		var vs []bitvec.Vec
		for i := 0; i < 64*(1+trial%maxWords); i++ {
			vs = append(vs, bitvec.New(n, rng.Uint64()&mask))
		}
		a := network.LoadVecs(n, vs)
		b := network.LoadVecs(n, vs)
		w.ApplyBatch(a)
		p.ApplyBatch(b)
		for i := range a.Lines {
			if a.Lines[i] != b.Lines[i] {
				t.Fatalf("W=%d batch word %d diverges", a.W, i)
			}
		}
	}
}

func TestImpureOpsScalarAgainstBatch(t *testing.T) {
	// Every opcode: the scalar interpreter and the word-parallel
	// interpreter must agree lane for lane, at every block word count.
	rng := rand.New(rand.NewSource(6))
	kinds := []OpKind{OpCmp, OpNop, OpSwap, OpRevCmp, OpClamp0, OpClamp1, OpShortOR, OpShortAND}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		var ops []Op
		for len(ops) < 1+rng.Intn(12) {
			k := kinds[rng.Intn(len(kinds))]
			a := rng.Intn(n - 1)
			b := a + 1 + rng.Intn(n-1-a)
			ops = append(ops, Op{Kind: k, A: a, B: b})
		}
		p := NewProgram(n, ops)
		var vs []bitvec.Vec
		mask := uint64(1)<<uint(n) - 1
		for i := 0; i < 64*(1+trial%maxWords); i++ {
			vs = append(vs, bitvec.New(n, rng.Uint64()&mask))
		}
		b := network.LoadVecs(n, vs)
		p.ApplyBatch(b)
		for lane, v := range vs {
			if b.Lane(lane) != p.Apply(v) {
				t.Fatalf("lane %d diverges for ops %v", lane, ops)
			}
		}
	}
}

// TestNewProgramsOverArena: each program over an arena range runs
// exactly its range — the same verdicts and purity as NewProgram on a
// copy of the range — and aliases the arena instead of copying it.
func TestNewProgramsOverArena(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []OpKind{OpCmp, OpNop, OpSwap, OpRevCmp, OpClamp0, OpClamp1, OpShortOR, OpShortAND}
	const n = 6
	var arena []Op
	ends := make([]int, 8)
	for i := range ends {
		for j := rng.Intn(10); j > 0; j-- { // empty ranges included
			a := rng.Intn(n - 1)
			k := OpCmp
			if i%2 == 1 { // even ranges stay pure
				k = kinds[rng.Intn(len(kinds))]
			}
			arena = append(arena, Op{Kind: k, A: a, B: a + 1 + rng.Intn(n-1-a)})
		}
		ends[i] = len(arena)
	}
	progs := NewPrograms(n, arena, ends)
	start := 0
	for i, p := range progs {
		solo := NewProgram(n, arena[start:ends[i]])
		if p.Size() != ends[i]-start || p.Pure() != solo.Pure() {
			t.Fatalf("program %d: size %d pure %v, want %d %v", i, p.Size(), p.Pure(), ends[i]-start, solo.Pure())
		}
		if p.Size() > 0 && &p.ops[0] != &arena[start] {
			t.Fatalf("program %d copies its range instead of aliasing the arena", i)
		}
		for x := uint64(0); x < 1<<n; x++ {
			if v := bitvec.New(n, x); p.Apply(v) != solo.Apply(v) {
				t.Fatalf("program %d diverges from NewProgram on %s", i, v)
			}
		}
		start = ends[i]
	}
}

func TestEngineRunMatchesScalarJudgment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(9)
		w := randomNet(n, rng.Intn(n*n), rng)
		p := Compile(w)
		// Scalar reference.
		wantHolds := true
		var wantFail bitvec.Vec
		it := bitvec.All(n)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if !w.ApplyVec(v).IsSorted() {
				wantHolds = false
				wantFail = v
				break
			}
		}
		for _, workers := range []int{1, 2, 4, 0} {
			got := New(p, workers).Run(bitvec.All(n), SortedJudge())
			if got.Holds != wantHolds {
				t.Fatalf("workers=%d: engine %v, scalar %v for %v", workers, got.Holds, wantHolds, w)
			}
			if !got.Holds && got.Out.IsSorted() {
				t.Fatalf("workers=%d: counterexample output is sorted", workers)
			}
			if workers == 1 && !got.Holds && got.In != wantFail {
				t.Fatalf("sequential engine found %s, scalar found %s", got.In, wantFail)
			}
		}
	}
}

func TestEngineRunCountsAllTestsOnHold(t *testing.T) {
	w := network.New(4).AddPair(0, 1).AddPair(2, 3).AddPair(0, 2).AddPair(1, 3).AddPair(1, 2)
	p := Compile(w)
	v := New(p, 1).Run(bitvec.All(4), SortedJudge())
	if !v.Holds || v.TestsRun != 16 {
		t.Fatalf("got %+v, want hold after 16 tests", v)
	}
}

func TestRunUniverseMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(9)
		w := randomNet(n, rng.Intn(n*n), rng)
		p := Compile(w)
		a := New(p, 1).Run(bitvec.All(n), SortedJudge())
		for _, workers := range []int{1, 3, 0} {
			b := New(p, workers).RunUniverse(SortedJudge())
			if a.Holds != b.Holds {
				t.Fatalf("workers=%d: universe %v, stream %v for %v", workers, b.Holds, a.Holds, w)
			}
			if !a.Holds && b.In != a.In {
				t.Fatalf("workers=%d: universe counterexample %s, want %s", workers, b.In, a.In)
			}
			if a.Holds && b.TestsRun != bitvec.Universe(n) {
				t.Fatalf("workers=%d: universe ran %d tests", workers, b.TestsRun)
			}
		}
	}
}

func TestPerLaneJudgeSeesInputs(t *testing.T) {
	// Identity-accepting judge on the empty network must hold; a
	// judge comparing out against a complemented input must fail
	// everywhere except where complement is a fixed point (never).
	p := Compile(network.New(3))
	ok := New(p, 1).Run(bitvec.All(3), PerLaneJudge(func(in, out bitvec.Vec) bool { return in == out }))
	if !ok.Holds {
		t.Fatalf("identity judge rejected the empty network: %+v", ok)
	}
	bad := New(p, 1).Run(bitvec.All(3), PerLaneJudge(func(in, out bitvec.Vec) bool { return in != out }))
	if bad.Holds {
		t.Fatal("inequality judge accepted the empty network")
	}
}

func TestSortsAll(t *testing.T) {
	sorter := network.New(3).AddPair(0, 1).AddPair(1, 2).AddPair(0, 1)
	if !Compile(sorter).SortsAll() {
		t.Error("3-line sorter rejected")
	}
	if Compile(network.New(3)).SortsAll() {
		t.Error("empty network accepted as sorter")
	}
}

func TestForEachUntilFindsSmallestHit(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		got := ForEachUntil(1000, workers, func(i int) bool { return i == 437 || i == 700 })
		if got != 437 {
			t.Fatalf("workers=%d: hit %d, want 437", workers, got)
		}
		if ForEachUntil(100, workers, func(int) bool { return false }) != -1 {
			t.Fatalf("workers=%d: phantom hit", workers)
		}
	}
}

func TestForEachVisitsEverything(t *testing.T) {
	var visited [257]atomic32
	ForEach(257, 4, func(i int) { visited[i].v.Add(1) })
	for i := range visited {
		if visited[i].v.Load() != 1 {
			t.Fatalf("index %d visited %d times", i, visited[i].v.Load())
		}
	}
}

func TestEngineWidePathAgainstNarrow(t *testing.T) {
	// A 16-line network evaluated through the wide path must agree
	// with the packed path (widevec has no real lower bound on n).
	rng := rand.New(rand.NewSource(9))
	w := randomNet(16, 40, rng)
	p := Compile(w)
	it := bitvec.All(16)
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		wv := mustWide(v)
		got := p.ApplyWide(wv)
		want := w.ApplyVec(v)
		for i := 0; i < 16; i++ {
			if got.Bit(i) != want.Bit(i) {
				t.Fatalf("wide path diverges on %s at line %d", v, i)
			}
		}
	}
}

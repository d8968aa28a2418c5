package network

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sortnets/internal/bitvec"
)

// fig1 is the paper's Fig. 1 network [1,3][2,4][1,2][3,4] (a 4-line
// sorter: Batcher's odd-even merge sort without the redundant [2,3]?
// — no, with [2,3] missing it still sorts? verified by tests below
// against the zero-one principle).
func fig1() *Network {
	return MustParse("n=4: [1,3][2,4][1,2][3,4]")
}

func TestFig1PaperTrace(t *testing.T) {
	// "The figure also shows the way the network processes the input
	// (4 1 3 2)." [1,3]: 3,1,4,2 → [2,4]: 3,1,4,2 (1<2 no swap) →
	// [1,2]: 1,3,4,2 → [3,4]: 1,3,2,4.
	got := fig1().Apply([]int{4, 1, 3, 2})
	want := []int{1, 3, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Fig.1 on (4 1 3 2) = %v, want %v", got, want)
		}
	}
}

func TestFig1IsNotASorter(t *testing.T) {
	// The paper's example network fails on (4 1 3 2), so it must also
	// fail the zero-one sweep.
	if fig1().SortsAllBinary() {
		t.Error("Fig. 1 network should not be a sorter")
	}
	// Its first binary failure must be a real failure.
	f := fig1().FirstBinaryFailure()
	if f.N < 0 {
		t.Fatal("expected a binary failure")
	}
	if fig1().ApplyVec(f).IsSorted() {
		t.Errorf("reported failure %s actually sorts", f)
	}
}

func TestAddValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("reversed", func() { New(4).AddPair(2, 1) })
	mustPanic("equal", func() { New(4).AddPair(1, 1) })
	mustPanic("out of range", func() { New(4).AddPair(0, 4) })
	mustPanic("negative n", func() { New(-1) })
}

func TestValidate(t *testing.T) {
	w := &Network{N: 3, Comps: []Comparator{{A: 0, B: 3}}}
	if err := w.Validate(); err == nil {
		t.Error("out-of-range comparator should fail validation")
	}
	if err := fig1().Validate(); err != nil {
		t.Error(err)
	}
}

func TestApplyMatchesApplyVec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(12)
		w := Random(n, rng.Intn(40), rng)
		v := bitvec.New(n, rng.Uint64()&(uint64(1)<<uint(n)-1))
		intOut := w.Apply(v.Ints())
		vecOut := w.ApplyVec(v)
		for i := 0; i < n; i++ {
			if intOut[i] != vecOut.Bit(i) {
				t.Fatalf("n=%d trial %d: int path %v vs vec path %s on %s (net %s)",
					n, trial, intOut, vecOut, v, w)
			}
		}
	}
}

func TestSortsAllBinarySmallCases(t *testing.T) {
	// The empty 1-line network sorts trivially.
	if !New(1).SortsAllBinary() {
		t.Error("1-line network should sort")
	}
	// [1,2] is the 2-line sorter.
	if !New(2).AddPair(0, 1).SortsAllBinary() {
		t.Error("[1,2] should sort 2 lines")
	}
	// The empty 2-line network fails on 10.
	f := New(2).FirstBinaryFailure()
	if f.String() != "10" {
		t.Errorf("first failure = %s, want 10", f)
	}
	// Bubble sort on 3 lines: [1,2][2,3][1,2].
	w3 := New(3).AddPair(0, 1).AddPair(1, 2).AddPair(0, 1)
	if !w3.SortsAllBinary() {
		t.Error("3-line bubble network should sort")
	}
}

func TestSortsAllBinaryAgainstExhaustiveScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(9)
		w := Random(n, rng.Intn(5*n), rng)
		want := true
		var firstFail bitvec.Vec
		it := bitvec.All(n)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if !w.ApplyVec(v).IsSorted() {
				want = false
				firstFail = v
				break
			}
		}
		if got := w.SortsAllBinary(); got != want {
			t.Fatalf("n=%d net %s: SortsAllBinary=%v, scalar says %v", n, w, got, want)
		}
		if !want {
			if got := w.FirstBinaryFailure(); got != firstFail {
				t.Fatalf("n=%d: first failure %s, scalar says %s", n, got, firstFail)
			}
		}
	}
}

func TestZeroOnePrincipleOnRandomNetworks(t *testing.T) {
	// The zero-one principle itself, machine-checked: a network sorts
	// all 0/1 inputs iff it sorts all permutations (n small enough to
	// sweep n!).
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5) // up to 6 lines, 720 perms
		size := rng.Intn(4 * n)
		w := Random(n, size, rng)
		binaryOK := w.SortsAllBinary()
		permOK := sortsAllPermutations(w)
		if binaryOK != permOK {
			t.Fatalf("zero-one violated: n=%d %s binary=%v perm=%v", n, w, binaryOK, permOK)
		}
	}
}

func sortsAllPermutations(w *Network) bool {
	idx := make([]int, w.N)
	for i := range idx {
		idx[i] = i + 1
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(idx) {
			out := w.Apply(idx)
			return sort.IntsAreSorted(out)
		}
		for i := k; i < len(idx); i++ {
			idx[k], idx[i] = idx[i], idx[k]
			if !rec(k + 1) {
				idx[k], idx[i] = idx[i], idx[k]
				return false
			}
			idx[k], idx[i] = idx[i], idx[k]
		}
		return true
	}
	return rec(0)
}

func TestMonotonicityProperty(t *testing.T) {
	// Lemma inside Theorem 2.4's proof: σ ≤ τ ⇒ H(σ) ≤ H(τ).
	rng := rand.New(rand.NewSource(77))
	f := func(x, y uint16, size uint8) bool {
		n := 16
		w := Random(n, int(size)%64, rng)
		a := bitvec.New(n, uint64(x&y)) // a ≤ b by construction
		b := bitvec.New(n, uint64(y))
		return bitvec.Leq(w.ApplyVec(a), w.ApplyVec(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStandardComparatorsNeverUnsort(t *testing.T) {
	// "once an input gets sorted, ensuing comparators cannot unsort it"
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(14)
		w := Random(n, 1+rng.Intn(3*n), rng)
		k := rng.Intn(n + 1)
		sorted := bitvec.SortedWithOnes(n, k)
		if got := w.ApplyVec(sorted); got != sorted {
			t.Fatalf("network %s moved sorted input %s to %s", w, sorted, got)
		}
	}
}

func TestDepthAndLayers(t *testing.T) {
	// Fig.1 packs into two parallel stages: {[1,3],[2,4]} then
	// {[1,2],[3,4]} — the pairs touch disjoint lines.
	w := fig1()
	if d := w.Depth(); d != 2 {
		t.Errorf("Fig.1 depth = %d, want 2", d)
	}
	layers := w.Layers()
	if len(layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(layers))
	}
	if len(layers[0]) != 2 || len(layers[1]) != 2 {
		t.Errorf("layer sizes %d/%d, want 2/2", len(layers[0]), len(layers[1]))
	}
	total := 0
	for _, l := range layers {
		total += len(l)
	}
	if total != w.Size() {
		t.Errorf("layers hold %d comparators, want %d", total, w.Size())
	}
	if New(5).Depth() != 0 {
		t.Error("empty network depth should be 0")
	}
}

func TestHeight(t *testing.T) {
	if h := fig1().Height(); h != 2 {
		t.Errorf("Fig.1 height = %d, want 2", h)
	}
	oddEven := New(4).AddPair(0, 1).AddPair(2, 3).AddPair(1, 2)
	if h := oddEven.Height(); h != 1 {
		t.Errorf("adjacent-only network height = %d, want 1", h)
	}
	if New(3).Height() != 0 {
		t.Error("empty network height should be 0")
	}
}

func TestOnLines(t *testing.T) {
	// Embed the 2-line sorter onto lines {1,3} of a 4-line network.
	sub := New(2).AddPair(0, 1)
	w := sub.OnLines(4, []int{1, 3})
	if w.N != 4 || w.Size() != 1 || w.Comps[0] != (Comparator{A: 1, B: 3}) {
		t.Errorf("OnLines produced %s", w.Format())
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("descending map", func() { sub.OnLines(4, []int{3, 1}) })
	mustPanic("duplicate", func() { sub.OnLines(4, []int{2, 2}) })
	mustPanic("range", func() { sub.OnLines(4, []int{0, 4}) })
	mustPanic("length", func() { sub.OnLines(4, []int{0}) })
}

func TestAppendAndClone(t *testing.T) {
	a := New(3).AddPair(0, 1)
	b := New(3).AddPair(1, 2)
	c := a.Clone().Append(b)
	if c.Size() != 2 || a.Size() != 1 {
		t.Error("Append/Clone sizes wrong")
	}
	a.Comps[0] = Comparator{A: 0, B: 2}
	if c.Comps[0] != (Comparator{A: 0, B: 1}) {
		t.Error("Clone not deep")
	}
}

func TestMirrorDuality(t *testing.T) {
	// Mirror(H)(rc(σ)) == rc(H(σ)) for random networks and inputs.
	rng := rand.New(rand.NewSource(31))
	rc := func(v bitvec.Vec) bitvec.Vec { return v.Reverse().Complement() }
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(12)
		w := Random(n, rng.Intn(30), rng)
		m := w.Mirror()
		v := bitvec.New(n, rng.Uint64()&(uint64(1)<<uint(n)-1))
		if got, want := m.ApplyVec(rc(v)), rc(w.ApplyVec(v)); got != want {
			t.Fatalf("duality broken: net %s input %s: %s vs %s", w, v, got, want)
		}
	}
}

func TestMirrorInvolutionAndSorterPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		w := Random(n, rng.Intn(4*n), rng)
		mm := w.Mirror().Mirror()
		for i := range w.Comps {
			if w.Comps[i] != mm.Comps[i] {
				t.Fatal("Mirror not an involution")
			}
		}
		if w.SortsAllBinary() != w.Mirror().SortsAllBinary() {
			t.Fatalf("mirror changed sorter-ness of %s", w)
		}
	}
}

func TestUntouched(t *testing.T) {
	w := New(5).AddPair(0, 2).AddPair(2, 4)
	got := w.Untouched()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Untouched = %v, want [1 3]", got)
	}
}

func TestRandomHeightBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		h := 1 + rng.Intn(3)
		w := RandomHeightBounded(8, 30, h, rng)
		if w.Height() > h {
			t.Fatalf("height %d exceeds bound %d", w.Height(), h)
		}
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

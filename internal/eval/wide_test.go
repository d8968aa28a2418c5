package eval

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sortnets/internal/bitvec"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/widevec"
)

// applyComparators is the scalar wide reference: the row routed
// through the comparators one at a time, bit by bit. It shares no code
// with the block engine.
func applyComparators(row []uint64, comps []network.Comparator) []uint64 {
	out := slices.Clone(row)
	for _, c := range comps {
		a, b := c.A, c.B
		av := out[a>>6] >> uint(a&63) & 1
		bv := out[b>>6] >> uint(b&63) & 1
		if av == 1 && bv == 0 {
			out[a>>6] &^= 1 << uint(a&63)
			out[b>>6] |= 1 << uint(b&63)
		}
	}
	return out
}

// rowSlice streams fixed rows.
type rowSlice struct {
	rows [][]uint64
	i    int
}

func (s *rowSlice) FillRows(dst []uint64, lim int) int {
	c := 0
	for ; c < lim && s.i < len(s.rows); c, s.i = c+1, s.i+1 {
		R := len(s.rows[s.i])
		copy(dst[c*R:c*R+R], s.rows[s.i])
	}
	return c
}

// randomRows returns count random rows of n lines.
func randomRows(n, count int, rng *rand.Rand) [][]uint64 {
	rows := make([][]uint64, count)
	for j := range rows {
		rows[j] = make([]uint64, rowWords(n))
		for i := 0; i < n; i++ {
			rows[j][i>>6] |= uint64(rng.Intn(2)) << uint(i&63)
		}
	}
	return rows
}

// laneRow reads one lane of a batch back as a row.
func laneRow(b *network.Batch, lane int) []uint64 {
	row := make([]uint64, rowWords(b.N))
	for i := 0; i < b.N; i++ {
		row[i>>6] |= (b.Lines[i*b.W+lane>>6] >> uint(lane&63) & 1) << uint(i&63)
	}
	return row
}

// wideRow is the row of a wide vector.
func wideRow(v widevec.Vec) []uint64 {
	row := make([]uint64, rowWords(v.N()))
	for i := 0; i < v.N(); i++ {
		row[i>>6] |= uint64(v.Bit(i)) << uint(i&63)
	}
	return row
}

func sortedRow(n int, row []uint64) bool {
	one := false
	for i := 0; i < n; i++ {
		bit := row[i>>6]>>uint(i&63)&1 == 1
		if one && !bit {
			return false
		}
		one = one || bit
	}
	return true
}

// rowJudge is the per-lane judge over rows, for any width.
func rowJudge(accepts func(in, out []uint64) bool) Judge {
	return Judge{NeedsInput: true, Rejects: func(in, out *network.Batch, bad []uint64) {
		clear(bad)
		for lane := 0; lane < out.Lanes; lane++ {
			if !accepts(laneRow(in, lane), laneRow(out, lane)) {
				bad[lane>>6] |= 1 << uint(lane&63)
			}
		}
	}}
}

// wideScalarRun is the reference RunWideCtx must match at one worker:
// one row at a time through applyComparators, stopping at the first
// failure in stream order.
func wideScalarRun(w *network.Network, rows [][]uint64, accepts func(in, out []uint64) bool) WideVerdict {
	for i, in := range rows {
		if out := applyComparators(in, w.Comps); !accepts(in, out) {
			return WideVerdict{TestsRun: i + 1, In: widevec.FromWords(w.N, in), Out: widevec.FromWords(w.N, out)}
		}
	}
	return WideVerdict{Holds: true, TestsRun: len(rows)}
}

func sameWide(a, b WideVerdict) bool {
	return a.Holds == b.Holds && a.TestsRun == b.TestsRun && a.In.Equal(b.In) && a.Out.Equal(b.Out)
}

func runWide(t *testing.T, p *Program, workers int, rows [][]uint64, judge Judge) WideVerdict {
	t.Helper()
	v, err := New(p, workers).RunWideCtx(context.Background(), &rowSlice{rows: rows}, judge)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkWide runs rows through RunWideCtx with the judge of accepts: at
// one worker the verdict equals the scalar reference field for field;
// at workers 0 and 2 Holds agrees and any counterexample fails under
// the reference.
func checkWide(t *testing.T, w *network.Network, rows [][]uint64, judge Judge, accepts func(in, out []uint64) bool, desc string) {
	t.Helper()
	p := Compile(w)
	want := wideScalarRun(w, rows, accepts)
	if got := runWide(t, p, 1, rows, judge); !sameWide(got, want) {
		t.Fatalf("%s: RunWideCtx %v, reference %v", desc, got, want)
	}
	for _, workers := range []int{0, 2} {
		got := runWide(t, p, workers, rows, judge)
		if got.Holds != want.Holds {
			t.Fatalf("%s, %d workers: holds %v, reference %v", desc, workers, got.Holds, want.Holds)
		}
		if got.Holds {
			continue
		}
		in := wideRow(got.In)
		out := applyComparators(in, w.Comps)
		if !widevec.FromWords(w.N, out).Equal(got.Out) || accepts(in, out) {
			t.Fatalf("%s, %d workers: counterexample %s -> %s passes the reference", desc, workers, got.In, got.Out)
		}
	}
}

// TestWideVerdictsMatchReference: RunWideCtx over rows of 65..200
// lines, on near-sorters and random networks, under the sorted judge,
// a judge that rejects one input row (so the first failure can sit in
// any word of any block) and a differential judge, against the scalar
// reference, at every final-block word count.
func TestWideVerdictsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		n := 65 + rng.Intn(136)
		w := network.Random(n, rng.Intn(4*n), rng)
		if trial%2 == 0 {
			w = nearSorter(n, rng)
		}
		for _, length := range streamLengths {
			rows := randomRows(n, length, rng)
			checkWide(t, w, rows, SortedJudge(), func(_, out []uint64) bool { return sortedRow(n, out) },
				"sorted")
			needle := rows[rng.Intn(length)]
			notNeedle := func(in, _ []uint64) bool { return !slices.Equal(in, needle) }
			checkWide(t, w, rows, rowJudge(notNeedle), notNeedle, "needle")
			same := func(in, out []uint64) bool { return slices.Equal(out, applyComparators(in, w.Comps)) }
			if v := runWide(t, Compile(w), 1, rows, rowJudge(same)); !v.Holds {
				t.Fatalf("n=%d len=%d: block path diverges from reference on %s", n, length, v.In)
			}
		}
	}
}

// TestEngineWidePathAgainstNarrow: a 16-line network over all 2¹⁶
// inputs through the row-stream entry must give the bitvec entry's
// verdict, counterexample included.
func TestEngineWidePathAgainstNarrow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, w := range []*network.Network{randomNet(16, 40, rng), gen.OddEvenMergeSort(16), nearSorter(16, rng)} {
		p := Compile(w)
		rows := make([][]uint64, 1<<16)
		for x := range rows {
			rows[x] = []uint64{uint64(x)}
		}
		want := New(p, 1).Run(bitvec.All(16), SortedJudge())
		got := runWide(t, p, 1, rows, SortedJudge())
		if got.Holds != want.Holds || got.TestsRun != want.TestsRun ||
			(!got.Holds && (got.In.String() != want.In.String() || got.Out.String() != want.Out.String())) {
			t.Fatalf("wide %v, narrow %+v", got, want)
		}
	}
}

func TestApplyComparatorsSortsWithBubble(t *testing.T) {
	// A wide bubble network must sort random wide inputs.
	const n = 150
	w := network.New(n)
	for pass := n - 1; pass >= 1; pass-- {
		for j := 0; j < pass; j++ {
			w.AddPair(j, j+1)
		}
	}
	rng := rand.New(rand.NewSource(6))
	for trial, in := range randomRows(n, 20, rng) {
		out := applyComparators(in, w.Comps)
		if !sortedRow(n, out) {
			t.Fatalf("bubble failed on trial %d", trial)
		}
		if widevec.FromWords(n, out).Ones() != widevec.FromWords(n, in).Ones() {
			t.Fatalf("multiset changed on trial %d", trial)
		}
	}
}

func TestApplyComparatorsMatchesNarrowSemantics(t *testing.T) {
	// Against the packed scalar evaluator on random pairs.
	f := func(x uint32, aRaw, bRaw uint8) bool {
		const n = 32
		a, b := int(aRaw)%n, int(bRaw)%n
		if a == b {
			return true
		}
		w := network.New(n).AddPair(min(a, b), max(a, b))
		in := []uint64{uint64(x)}
		want := w.ApplyVec(bitvec.New(n, uint64(x)))
		return applyComparators(in, w.Comps)[0] == want.Bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package search

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The list-based reduction the word pipeline replaced, kept as the
// reference it must match: families as ascending element-id lists,
// forced singletons through a membership map, the element space
// compressed through an id map, and an all-pairs dominance scan.

// refForceSingletons is the reference forced-singleton loop.
func refForceSingletons(fams [][]int32) (forced []int32, rest [][]int32) {
	forcedSet := make(map[int32]bool)
	for {
		progress := false
		rest = fams[:0]
		for _, f := range fams {
			hit := false
			for _, e := range f {
				if forcedSet[e] {
					hit = true
					break
				}
			}
			if hit {
				continue
			}
			if len(f) == 1 {
				forcedSet[f[0]] = true
				forced = append(forced, f[0])
				progress = true
				continue
			}
			rest = append(rest, f)
		}
		fams = rest
		if !progress {
			return forced, rest
		}
	}
}

// refCoverProblem is the reference newCoverProblem: it sorts fams by
// (size, element list) in place.
func refCoverProblem(fams [][]int32) *coverProblem {
	slices.SortFunc(fams, func(a, b []int32) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.Compare(a, b)
	})
	idx := make(map[int32]int32)
	var elems []int32
	for _, f := range fams {
		for _, e := range f {
			if _, ok := idx[e]; !ok {
				idx[e] = 0
				elems = append(elems, e)
			}
		}
	}
	slices.Sort(elems)
	for i, e := range elems {
		idx[e] = int32(i)
	}
	p := &coverProblem{
		nf:    len(fams),
		fw:    wordsFor(len(fams)),
		elems: elems,
		ew:    wordsFor(len(elems)),
	}
	p.tailMask = ^uint64(0)
	if r := p.nf & 63; r != 0 {
		p.tailMask = uint64(1)<<uint(r) - 1
	}
	p.cover = make([]uint64, len(elems)*p.fw)
	for fi, f := range fams {
		for _, e := range f {
			ei := int(idx[e])
			p.cover[ei*p.fw+fi>>6] |= 1 << uint(fi&63)
		}
	}
	alive := make([]bool, len(elems))
	for i := range alive {
		alive[i] = true
	}
	for i := range elems {
		for j := range elems {
			if i == j || !alive[i] || !alive[j] {
				continue
			}
			if subsetWords(p.coverOf(i), p.coverOf(j)) && (j < i || !subsetWords(p.coverOf(j), p.coverOf(i))) {
				alive[i] = false
				break
			}
		}
	}
	for i := range elems {
		if alive[i] {
			p.aliveIdx = append(p.aliveIdx, int32(i))
		}
	}
	p.famMask = make([]uint64, len(fams)*p.ew)
	for fi, f := range fams {
		for _, e := range f {
			if ei := int(idx[e]); alive[ei] {
				p.famMask[fi*p.ew+ei>>6] |= 1 << uint(ei&63)
			}
		}
	}
	return p
}

// rowList is a row's ascending element list.
func rowList(words []uint64) []int32 {
	var out []int32
	for k, w := range words {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(k<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}

func rowLists(rows []maskRow) [][]int32 {
	lists := make([][]int32, len(rows))
	for i, r := range rows {
		lists[i] = rowList(r.words)
	}
	return lists
}

// refPrune is the definition of superset pruning: the distinct rows
// no other row is a proper subset of, in (popcount, content) order.
func refPrune(rows []maskRow) [][]uint64 {
	var out [][]uint64
	for _, r := range rows {
		minimal := true
		for _, s := range rows {
			if subsetWords(s.words, r.words) && !slices.Equal(s.words, r.words) {
				minimal = false
				break
			}
		}
		if minimal && !slices.ContainsFunc(out, func(o []uint64) bool { return slices.Equal(o, r.words) }) {
			out = append(out, r.words)
		}
	}
	slices.SortFunc(out, func(a, b []uint64) int {
		if pa, pb := countWords(a), countWords(b); pa != pb {
			return pa - pb
		}
		return slices.Compare(a, b)
	})
	return out
}

// randomRowFamily draws a family of non-empty rows over universe
// elements: random rows of a random density, singletons, duplicates
// and strict supersets of earlier rows, and elements whose family
// covers equal another element's (b copies a's membership in every
// row).
func randomRowFamily(rng *rand.Rand, universe int) []maskRow {
	nw := wordsFor(universe)
	density := 0.05 + 0.3*rng.Float64()
	var words [][]uint64
	for i, nf := 0, 1+rng.Intn(28); i < nf; i++ {
		row := make([]uint64, nw)
		switch k := rng.Intn(8); {
		case k == 0:
			e := rng.Intn(universe)
			row[e>>6] |= 1 << uint(e&63)
		case k == 1 && len(words) > 0:
			copy(row, words[rng.Intn(len(words))])
		case k == 2 && len(words) > 0:
			copy(row, words[rng.Intn(len(words))])
			for j := 1 + rng.Intn(3); j > 0; j-- {
				e := rng.Intn(universe)
				row[e>>6] |= 1 << uint(e&63)
			}
		default:
			for e := 0; e < universe; e++ {
				if rng.Float64() < density {
					row[e>>6] |= 1 << uint(e&63)
				}
			}
		}
		words = append(words, row)
	}
	for twins := rng.Intn(5); twins > 0; twins-- {
		a, b := rng.Intn(universe), rng.Intn(universe)
		for _, row := range words {
			row[b>>6] &^= 1 << uint(b&63)
			row[b>>6] |= (row[a>>6] >> uint(a&63) & 1) << uint(b&63)
		}
	}
	var rows []maskRow
	for _, row := range words {
		if pc := countWords(row); pc > 0 {
			rows = append(rows, maskRow{words: row, pc: pc, src: len(rows)})
		}
	}
	return rows
}

// TestReductionMatchesListReference pins the word-level reduction to
// the list-based one it replaced on random one-word and multi-word
// families: the same pruned family, the same forced elements and
// remaining families, the same canonical family order, compressed
// element ids, covers, alive set and family masks, and at one worker
// the same witness; at two workers, the same cardinality.
func TestReductionMatchesListReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2323))
	ctx := context.Background()
	trials := 2400
	if testing.Short() {
		trials = 400
	}
	branched := 0
	for trial := 0; trial < trials; trial++ {
		universe := 1 + rng.Intn(64)
		if trial%2 == 1 {
			universe = 65 + rng.Intn(200)
		}
		rows := randomRowFamily(rng, universe)
		if len(rows) == 0 {
			continue
		}
		wantPruned := refPrune(rows)
		pruned := pruneSupersetRows(slices.Clone(rows))
		if len(pruned) != len(wantPruned) {
			t.Fatalf("trial %d: %d rows survive pruning, reference %d", trial, len(pruned), len(wantPruned))
		}
		for i, r := range pruned {
			if !slices.Equal(r.words, wantPruned[i]) || r.pc != countWords(r.words) {
				t.Fatalf("trial %d: pruned row %d is %v (pc %d), reference %v", trial, i, r.words, r.pc, wantPruned[i])
			}
		}

		// The forced-singleton loop also matches on the unpruned
		// family, where singletons repeat and hit larger families.
		rawForced, rawRest := refForceSingletons(rowLists(rows))
		gotRest, gotForced := forceSingletons(slices.Clone(rows))
		slices.Sort(rawForced)
		if !slices.Equal(rowList(gotForced), rawForced) || !slices.EqualFunc(rowLists(gotRest), rawRest, slices.Equal) {
			t.Fatalf("trial %d: unpruned family forces %v leaving %v, reference %v leaving %v",
				trial, rowList(gotForced), rowLists(gotRest), rawForced, rawRest)
		}

		refForced, refRest := refForceSingletons(rowLists(pruned))
		rest, forced := forceSingletons(slices.Clone(pruned))
		slices.Sort(refForced)
		if got := rowList(forced); !slices.Equal(got, refForced) {
			t.Fatalf("trial %d: forced %v, reference %v", trial, got, refForced)
		}
		if got := rowLists(rest); !slices.EqualFunc(got, refRest, slices.Equal) {
			t.Fatalf("trial %d: remaining families %v, reference %v", trial, got, refRest)
		}
		if len(rest) == 0 {
			continue
		}

		ref := refCoverProblem(refRest)
		p := newCoverProblem(rest)
		if got := rowLists(rest); !slices.EqualFunc(got, refRest, slices.Equal) {
			t.Fatalf("trial %d: family order %v, reference %v", trial, got, refRest)
		}
		if p.nf != ref.nf || p.fw != ref.fw || p.ew != ref.ew || p.tailMask != ref.tailMask {
			t.Fatalf("trial %d: shape (%d, %d, %d, %x), reference (%d, %d, %d, %x)",
				trial, p.nf, p.fw, p.ew, p.tailMask, ref.nf, ref.fw, ref.ew, ref.tailMask)
		}
		if !slices.Equal(p.elems, ref.elems) {
			t.Fatalf("trial %d: compressed ids %v, reference %v", trial, p.elems, ref.elems)
		}
		if !slices.Equal(p.cover, ref.cover) {
			t.Fatalf("trial %d: element covers differ from the reference", trial)
		}
		if !slices.Equal(p.aliveIdx, ref.aliveIdx) {
			t.Fatalf("trial %d: alive %v, reference %v", trial, p.aliveIdx, ref.aliveIdx)
		}
		if !slices.Equal(p.famMask, ref.famMask) {
			t.Fatalf("trial %d: family masks differ from the reference", trial)
		}

		got, gotExact, err := solveCover(ctx, p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, wantExact, err := solveCover(ctx, ref, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !gotExact || !wantExact || !slices.Equal(got, want) {
			t.Fatalf("trial %d: witness %v (exact %v), reference %v (exact %v)", trial, got, gotExact, want, wantExact)
		}
		par, parExact, err := solveCover(ctx, newCoverProblem(slices.Clone(rest)), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !parExact || len(par) != len(want) {
			t.Fatalf("trial %d: two workers found %d (exact %v), one worker %d", trial, len(par), parExact, len(want))
		}
		root := make([]uint64, p.fw)
		seed := p.greedyComplete(root, make([]uint64, p.fw), nil, -1)
		if p.disjointLB(root, make([]uint64, p.ew), len(seed)+1) < len(seed) {
			branched++
		}
	}
	t.Logf("%d of %d trials needed the branch and bound", branched, trials)
	if branched < trials/20 {
		t.Fatalf("only %d of %d trials reached the branch and bound; the families are too easy", branched, trials)
	}
}

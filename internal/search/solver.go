package search

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"sortnets/internal/eval"
)

// The exact hitting-set core shared by MinHittingSet and
// MinimumTestSet (one-word masks), MinHittingSetBits (bitset families,
// among them the fault detection matrix's rows) and
// MinimumPermTestSet (multi-word rows). Every entry point hands the
// same representation to solveHitting: superset-pruned rows of 64-bit
// words (maskRow), reduced with word operations only — no maps and no
// per-family element lists. The instance becomes a covering problem
// over a compressed element space: each element carries a
// precomputed bitset of the families containing it, so a
// branch-and-bound node extends coverage with one OR instead of
// re-intersecting every family against the chosen set, and never
// sorts or allocates — all state lives in per-worker scratch stacks.
//
// Reductions before branching: forced singletons (a one-element
// failure set forces that element — exactly the Lemma 2.1 argument),
// collected in a word mask; compression of the element ids that occur
// to their rank in the union of the rows, a word at a time, with the
// element covers as the compressed families' 64×64-bit transpose;
// canonical family ordering (size, then ascending element list — so
// results do not depend on closure enumeration order); and element
// dominance (an element whose family coverage is a subset of
// another's can be dropped; cf. the pruning-driven search of Renz &
// Nebel), checked against the kept covers only, largest first, so
// equal covers collapse to their lowest id. The bound is the
// pairwise-disjoint-family count; the
// incumbent starts from a deterministic greedy cover and is
// re-polished greedily at depth every polishPeriod nodes (incumbent
// sharing in the spirit of Goldberg's IC3 convergence work). With
// workers > 1 the tree is carved into frontier tasks claimed
// dynamically by a worker pool that prunes against a shared atomic
// incumbent; the minimum cardinality is deterministic either way (only
// the identity of the witness can vary across parallel schedules).

// coverProblem is the reduced instance. Elements are compressed to
// indices 0..len(elems)-1; elems maps back to original element ids.
type coverProblem struct {
	nf       int      // families
	fw       int      // words per family-space bitset
	tailMask uint64   // valid bits of the last family word
	elems    []int32  // reduced element ids, ascending
	cover    []uint64 // per element index, fw words: families containing it
	aliveIdx []int32  // element indices surviving dominance, ascending
	famMask  []uint64 // per family, ew words: its surviving element indices
	ew       int      // words per element-space bitset
}

// coverOf is element e's family cover.
func (p *coverProblem) coverOf(e int) []uint64 { return p.cover[e*p.fw : (e+1)*p.fw] }

// famOf is family f's mask over the element-index space.
func (p *coverProblem) famOf(f int) []uint64 { return p.famMask[f*p.ew : (f+1)*p.ew] }

func wordsFor(n int) int { return (n + 63) / 64 }

// compareCanonical orders rows by size, then by ascending element
// list: of two equal-size rows, the one holding their lowest
// differing bit comes first.
func compareCanonical(a, b maskRow) int {
	if a.pc != b.pc {
		return a.pc - b.pc
	}
	for k, x := range a.words {
		if d := x ^ b.words[k]; d != 0 {
			if x&(d&-d) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// pext packs the bits of x at the set positions of m into the low
// bits, in order: a software parallel bit extract that moves each run
// of m's ones as one field.
func pext(x, m uint64) uint64 {
	var out uint64
	at := 0
	for m != 0 {
		lo := bits.TrailingZeros64(m)
		run := bits.TrailingZeros64(^(m >> uint(lo)))
		field := uint64(1)<<uint(run) - 1
		out |= (x >> uint(lo) & field) << uint(at)
		at += run
		m &^= field << uint(lo)
	}
	return out
}

// newCoverProblem compresses and canonicalizes a family of non-empty
// rows over one word width, sorting fams in place, and applies element
// dominance. Families are sorted by (size, element list) so everything
// downstream is independent of enumeration order.
func newCoverProblem(fams []maskRow) *coverProblem {
	slices.SortFunc(fams, compareCanonical)

	// Compress the element space to the ids that occur: an element's
	// index is its rank in the union of the rows.
	nw := len(fams[0].words)
	union := make([]uint64, nw)
	for _, f := range fams {
		for k, w := range f.words {
			union[k] |= w
		}
	}
	ne := countWords(union)
	elems := make([]int32, 0, ne)
	for k, u := range union {
		for ; u != 0; u &= u - 1 {
			elems = append(elems, int32(k<<6+bits.TrailingZeros64(u)))
		}
	}

	p := &coverProblem{
		nf:    len(fams),
		fw:    wordsFor(len(fams)),
		elems: elems,
		ew:    wordsFor(ne),
	}
	p.tailMask = ^uint64(0)
	if r := p.nf & 63; r != 0 {
		p.tailMask = uint64(1)<<uint(r) - 1
	}
	// A family's compressed mask packs each row word under its union
	// word and places it at the rank of that word's first element; the
	// element covers are the masks' transpose.
	p.famMask = make([]uint64, p.nf*p.ew)
	for fi, f := range fams {
		fm := p.famOf(fi)
		at := 0
		for k, w := range f.words {
			packed := pext(w, union[k])
			fm[at>>6] |= packed << uint(at&63)
			if hi := packed >> uint(64-at&63); hi != 0 {
				fm[at>>6+1] |= hi
			}
			at += bits.OnesCount64(union[k])
		}
	}
	p.cover = make([]uint64, ne*p.fw)
	eval.TransposeRows(p.cover, p.famMask, p.nf, ne)

	// Element dominance keeps exactly the elements whose cover no other
	// cover strictly contains and no lower element's cover equals. Taken
	// by decreasing cover size, lowest index first, an element is
	// dropped when the cover of an element kept before it contains its
	// own: equal covers collapse to their lowest index, and a strictly
	// larger cover was taken earlier, as was the kept cover containing
	// it.
	size := make([]int, ne)
	first := make([]int, p.nf+2) // per size, its first slot in order
	for e := range size {
		size[e] = countWords(p.coverOf(e))
		first[size[e]]++
	}
	for sz, slot := p.nf, 0; sz >= 0; sz-- {
		first[sz], slot = slot, slot+first[sz]
	}
	order := make([]int32, ne)
	for e, sz := range size {
		order[first[sz]] = int32(e)
		first[sz]++
	}
	alive := make([]uint64, p.ew)
	kept := order[:0] // overwrites only slots the scan has passed
	for _, e := range order {
		ce := p.coverOf(int(e))
		dominated := false
		for _, k := range kept {
			if subsetWords(ce, p.coverOf(int(k))) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, e)
			alive[e>>6] |= 1 << uint(e&63)
		}
	}
	p.aliveIdx = make([]int32, 0, len(kept))
	for wi, a := range alive {
		for ; a != 0; a &= a - 1 {
			p.aliveIdx = append(p.aliveIdx, int32(wi<<6+bits.TrailingZeros64(a)))
		}
	}
	for i := range p.famMask {
		p.famMask[i] &= alive[i%p.ew]
	}
	return p
}

func subsetWords(a, b []uint64) bool {
	for i, w := range a {
		if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

func intersectsWords(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// firstUncovered returns the index of the first family not covered by
// cov — the smallest uncovered family, since families are sorted by
// size — or -1 when everything is covered.
func (p *coverProblem) firstUncovered(cov []uint64) int {
	for wi := 0; wi < p.fw; wi++ {
		w := ^cov[wi]
		if wi == p.fw-1 {
			w &= p.tailMask
		}
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// disjointLB greedily collects pairwise-disjoint uncovered families —
// each needs its own element — stopping early at cutoff. used is
// caller scratch over the element-index space.
func (p *coverProblem) disjointLB(cov, used []uint64, cutoff int) int {
	for i := range used {
		used[i] = 0
	}
	lb := 0
	for i := 0; i < p.nf && lb < cutoff; i++ {
		if cov[i>>6]>>uint(i&63)&1 == 1 {
			continue
		}
		if intersectsWords(p.famOf(i), used) {
			continue
		}
		lb++
		for w, m := range p.famOf(i) {
			used[w] |= m
		}
	}
	return lb
}

// greedyComplete extends cov to a full cover, appending picks (element
// indices) to dst: repeatedly the element covering the most uncovered
// families, ties to the lowest element index (ascending scan), so
// greedy solutions are reproducible run-to-run. scratch is caller
// scratch over family space (clobbered). Gives up and returns nil
// when more than maxPicks picks would be needed (maxPicks < 0 means
// unlimited).
func (p *coverProblem) greedyComplete(cov, scratch []uint64, dst []int32, maxPicks int) []int32 {
	copy(scratch, cov)
	n := 0
	for p.firstUncovered(scratch) >= 0 {
		if maxPicks >= 0 && n >= maxPicks {
			return nil
		}
		bestE, bestC := -1, 0
		for _, e := range p.aliveIdx {
			c := 0
			for wi, w := range p.coverOf(int(e)) {
				c += bits.OnesCount64(w &^ scratch[wi])
			}
			if c > bestC {
				bestE, bestC = int(e), c
			}
		}
		if bestE < 0 {
			// Unreachable for well-formed instances (every family
			// non-empty and containing at least one live element).
			panic("search: greedy cover stalled")
		}
		for wi, w := range p.coverOf(bestE) {
			scratch[wi] |= w
		}
		dst = append(dst, int32(bestE))
		n++
	}
	return dst
}

// incumbent is the best hitting set found so far, shared by all
// workers: the size is read lock-free on the hot path, the witness
// updated under the mutex only on strict improvement.
type incumbent struct {
	size atomic.Int32
	mu   sync.Mutex
	set  []int32
}

func (b *incumbent) tryImprove(chosen []int32) {
	n := int32(len(chosen))
	if n >= b.size.Load() {
		return
	}
	b.mu.Lock()
	if n < b.size.Load() {
		b.set = append(b.set[:0], chosen...)
		b.size.Store(n)
	}
	b.mu.Unlock()
}

const (
	polishPeriod = 4096 // nodes between greedy re-polishes of the incumbent
	nodeFlush    = 256  // local node counts flushed to the shared budget
)

// hsWorker is one searcher's scratch: coverage stacks indexed by
// depth, the chosen stack, and lower-bound/polish buffers — allocated
// once per worker, never per node (the hoisted-scratch sequential
// fallback the parallel solver builds on).
type hsWorker struct {
	p        *coverProblem
	best     *incumbent
	ctx      context.Context
	covStack [][]uint64
	chosen   []int32
	lbUsed   []uint64
	polCov   []uint64
	polPick  []int32
	nodes    int64
	budget   int64         // ≤ 0: unlimited
	shared   *atomic.Int64 // parallel mode: global node count
	aborted  bool
	canceled bool // aborted because the context was cancelled
}

func newHsWorker(ctx context.Context, p *coverProblem, best *incumbent, budget int64, shared *atomic.Int64) *hsWorker {
	return &hsWorker{
		p:      p,
		best:   best,
		ctx:    ctx,
		lbUsed: make([]uint64, p.ew),
		polCov: make([]uint64, p.fw),
		budget: budget,
		shared: shared,
	}
}

func (w *hsWorker) cov(depth int) []uint64 {
	for len(w.covStack) <= depth {
		w.covStack = append(w.covStack, make([]uint64, w.p.fw))
	}
	return w.covStack[depth]
}

func (w *hsWorker) overBudget() bool {
	if w.budget <= 0 {
		return false
	}
	if w.shared == nil {
		return w.nodes > w.budget
	}
	if w.nodes%nodeFlush == 0 {
		w.shared.Add(nodeFlush)
	}
	return w.shared.Load() > w.budget
}

// dfs explores the subtree at depth (len(chosen) == depth, coverage in
// covStack[depth]). Cancellation is checked every nodeFlush nodes —
// the same cadence the shared budget is flushed at.
func (w *hsWorker) dfs(depth int) {
	w.nodes++
	if w.nodes%nodeFlush == 0 && w.ctx.Err() != nil {
		w.aborted, w.canceled = true, true
		return
	}
	if w.overBudget() {
		w.aborted = true
		return
	}
	cov := w.covStack[depth]
	fi := w.p.firstUncovered(cov)
	if fi < 0 {
		w.best.tryImprove(w.chosen)
		return
	}
	bound := int(w.best.size.Load())
	need := bound - depth // improving needs < need more elements
	if need <= 1 {
		return // even one more element cannot beat the incumbent
	}
	if depth+w.p.disjointLB(cov, w.lbUsed, need) >= bound {
		return
	}
	if w.nodes%polishPeriod == 0 {
		w.polish(depth)
	}
	child := w.cov(depth + 1)
	cov = w.covStack[depth] // cov may have been re-staged by growth
	for fwi, fm := range w.p.famOf(fi) {
		for ; fm != 0; fm &= fm - 1 {
			e := int32(fwi<<6 + bits.TrailingZeros64(fm))
			for wi, m := range w.p.coverOf(int(e)) {
				child[wi] = cov[wi] | m
			}
			w.chosen = append(w.chosen, e)
			w.dfs(depth + 1)
			w.chosen = w.chosen[:depth]
			if w.aborted {
				return
			}
		}
	}
}

// polish greedily completes the current partial solution; an
// improvement tightens the shared incumbent (and with it every
// worker's bound) without waiting for the branch and bound to reach a
// leaf.
func (w *hsWorker) polish(depth int) {
	maxPicks := int(w.best.size.Load()) - depth - 1
	if maxPicks < 1 {
		return
	}
	w.polPick = w.polPick[:0]
	picks := w.p.greedyComplete(w.covStack[depth], w.polCov, w.polPick, maxPicks)
	if picks == nil {
		return
	}
	w.polPick = picks
	total := append(append(make([]int32, 0, depth+len(picks)), w.chosen[:depth]...), picks...)
	w.best.tryImprove(total)
}

// hsTask is one frontier subproblem handed to the worker pool.
type hsTask struct {
	chosen []int32
	cov    []uint64
}

// solveCover runs the exact search over a reduced problem, seeded with
// the greedy incumbent. Returns the best element-index set found and
// whether the search completed (false only on budget exhaustion). A
// cancelled context aborts the branch and bound and returns the
// context's error instead of a witness.
func solveCover(ctx context.Context, p *coverProblem, budget int64, workers int) ([]int32, bool, error) {
	best := &incumbent{}
	seed := newHsWorker(ctx, p, best, 0, nil)
	ub := p.greedyComplete(seed.cov(0), seed.polCov, nil, -1)
	best.set = append([]int32(nil), ub...)
	best.size.Store(int32(len(ub)))
	if p.disjointLB(seed.cov(0), seed.lbUsed, len(ub)+1) >= len(ub) {
		// Greedy met the disjoint bound: certified optimal without
		// branching (the common case for the paper's structured
		// families).
		return best.set, true, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}

	workers = eval.Workers(workers)
	if workers == 1 {
		w := newHsWorker(ctx, p, best, budget, nil)
		w.cov(0) // stage the (all-zero) root coverage
		w.dfs(0)
		if w.canceled {
			return nil, false, ctx.Err()
		}
		return best.set, !w.aborted, nil
	}

	// Carve the tree into tasks: expand the shallowest frontier node
	// until the pool has a few tasks per worker to claim.
	tasks := []hsTask{{cov: make([]uint64, p.fw)}}
	scout := newHsWorker(ctx, p, best, 0, nil)
	for len(tasks) > 0 && len(tasks) < workers*8 {
		t := tasks[0]
		tasks = tasks[1:]
		fi := p.firstUncovered(t.cov)
		if fi < 0 {
			best.tryImprove(t.chosen)
			continue
		}
		depth := len(t.chosen)
		bound := int(best.size.Load())
		if bound-depth <= 1 || depth+p.disjointLB(t.cov, scout.lbUsed, bound-depth) >= bound {
			continue
		}
		for fwi, fm := range p.famOf(fi) {
			for ; fm != 0; fm &= fm - 1 {
				e := int32(fwi<<6 + bits.TrailingZeros64(fm))
				cov := make([]uint64, p.fw)
				for wi, m := range p.coverOf(int(e)) {
					cov[wi] = t.cov[wi] | m
				}
				tasks = append(tasks, hsTask{
					chosen: append(append(make([]int32, 0, depth+1), t.chosen...), e),
					cov:    cov,
				})
			}
		}
	}

	var cursor, sharedNodes atomic.Int64
	var exhausted, canceled atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newHsWorker(ctx, p, best, budget, &sharedNodes)
			for {
				ti := cursor.Add(1) - 1
				if ti >= int64(len(tasks)) || ctx.Err() != nil {
					return
				}
				t := tasks[ti]
				depth := len(t.chosen)
				copy(w.cov(depth), t.cov)
				w.chosen = append(w.chosen[:0], t.chosen...)
				w.aborted = false
				w.canceled = false
				w.dfs(depth)
				if w.aborted {
					if w.canceled {
						canceled.Store(true)
					}
					exhausted.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if canceled.Load() || ctx.Err() != nil {
		return nil, false, ctx.Err()
	}
	return best.set, !exhausted.Load(), nil
}

// solveHitting is the full pipeline over a superset-pruned family of
// non-empty rows of one word width: forced singletons, reduction,
// greedy bound, branch and bound. It reorders fams in place and never
// writes their words. It returns the chosen original element ids
// (ascending) and whether the result is certified optimal. A
// cancelled context returns the context's error and no witness.
func solveHitting(ctx context.Context, fams []maskRow, budget int64, workers int) ([]int32, bool, error) {
	if len(fams) == 0 {
		return nil, true, nil
	}
	fams, forced := forceSingletons(fams)
	var idxs []int32
	var p *coverProblem
	exact := true
	if len(fams) > 0 {
		p = newCoverProblem(fams)
		var err error
		if idxs, exact, err = solveCover(ctx, p, budget, workers); err != nil {
			return nil, false, err
		}
	}
	out := make([]int32, 0, len(idxs)+countWords(forced))
	for k, w := range forced {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(k<<6+bits.TrailingZeros64(w)))
		}
	}
	for _, ei := range idxs {
		out = append(out, p.elems[ei])
	}
	slices.Sort(out)
	return out, exact, nil
}

// forceSingletons takes every element a one-element family forces
// into the mask forced and drops the families it hits, repeating
// until no singleton is left; it returns the remaining families, in
// their order, over fams' backing array.
func forceSingletons(fams []maskRow) (rest []maskRow, forced []uint64) {
	forced = make([]uint64, len(fams[0].words))
	for {
		progress := false
		rest = fams[:0]
		for _, f := range fams {
			if intersectsWords(f.words, forced) {
				continue
			}
			if f.pc == 1 {
				for k, w := range f.words {
					forced[k] |= w
				}
				progress = true
				continue
			}
			rest = append(rest, f)
		}
		fams = rest
		if !progress {
			return rest, forced
		}
	}
}

func countWords(ws []uint64) int {
	c := 0
	for _, w := range ws {
		c += bits.OnesCount64(w)
	}
	return c
}

package search

import (
	"context"
	"fmt"
	"reflect"

	"sortnets/internal/bitset"
	"sortnets/internal/network"
	"sortnets/internal/perm"
)

// Permutation-space search: the same behaviour-closure idea as
// behavior.go, but over permutation inputs. This confirms the paper's
// *permutation-input* bounds computationally — Theorem 2.2(ii)'s
// C(n,⌊n/2⌋) − 1, Theorem 2.4(ii)'s C(n,min(⌊n/2⌋,k)) − 1, Theorem
// 2.5(ii)'s n/2 — and de Bruijn's single-test theorem for height-1
// networks, and produces exact permutation numbers for height-2 (new).
//
// A behaviour is the table of outputs over all n! permutations, input
// order = lexicographic rank. Failure sets live in an n!-element
// universe, so they are multi-word bitsets rather than machine words.
// Like the binary path, the pipeline runs on the dense closure store:
// tables live in a flat arena, one scan of it builds the failure rows,
// and the hitting set is solved by the shared branch-and-bound core.

// PermBehavior is the full input-output table over permutations:
// n bytes of output values per input, inputs in lexicographic rank
// order, packed into a string for map keys.
type PermBehavior string

// MaxPermLines bounds permutation-space searches: the table has
// n·n! bytes and the closure is enumerated explicitly.
const MaxPermLines = 6

// permInputTable tabulates the n! permutation inputs in lexicographic
// order as n-byte rows of one arena, row r the input of rank r, by
// stepping one permutation with perm.NextLex. It is also the empty
// network's behaviour. A search builds it once and shares it.
func permInputTable(n int) []byte {
	if n < 1 || n > MaxPermLines {
		panic(fmt.Sprintf("search: n=%d out of range 1..%d", n, MaxPermLines))
	}
	rows := 1
	for i := 2; i <= n; i++ {
		rows *= i
	}
	table := make([]byte, 0, n*rows)
	for p := perm.Identity(n); ; {
		for _, v := range p {
			table = append(table, byte(v))
		}
		if !perm.NextLex(p) {
			return table
		}
	}
}

// PermIdentity returns the empty network's permutation behaviour.
func PermIdentity(n int) PermBehavior { return PermBehavior(permInputTable(n)) }

// applyComparatorPermTable routes every tabulated output of src
// through the comparator, writing to dst.
func applyComparatorPermTable(dst, src []byte, n int, c network.Comparator) {
	copy(dst, src)
	for base := 0; base < len(dst); base += n {
		if dst[base+c.A] > dst[base+c.B] {
			dst[base+c.A], dst[base+c.B] = dst[base+c.B], dst[base+c.A]
		}
	}
}

// Apply routes every tabulated output through one more comparator.
func (b PermBehavior) Apply(n int, c network.Comparator) PermBehavior {
	out := make([]byte, len(b))
	applyComparatorPermTable(out, []byte(b), n, c)
	return PermBehavior(out)
}

// Output returns the output values for the input with the given rank.
func (b PermBehavior) Output(n, rank int) []byte {
	return []byte(b[rank*n : (rank+1)*n])
}

// permClosureStore enumerates the permutation closure on the dense
// store. It exploits Floyd's correspondence instead of BFS-ing the
// n·n!-byte permutation tables directly: a network's action on
// permutations is determined by its action on 0/1 vectors, so the
// permutation closure is in bijection with the binary closure. The
// BFS therefore runs over the 2ⁿ-byte binary tables (dedupe hashes
// 6–48x fewer bytes), and the permutation tables are reconstructed by
// replaying the BFS spanning tree — exactly ONE comparator
// application per behaviour instead of one per (behaviour, alphabet
// rule) candidate. inputs is permInputTable(n), the identity
// behaviour the replay starts from.
func permClosureStore(ctx context.Context, n int, inputs []byte, alphabet []network.Comparator, limit int) (*behaviorStore, error) {
	bst, err := binaryClosureStore(ctx, n, alphabet, limit)
	if err != nil {
		return nil, err
	}
	st := &behaviorStore{
		stride:   len(inputs),
		parentOf: bst.parentOf,
		ruleOf:   bst.ruleOf,
	}
	copy(st.add(bst.count), inputs)
	for id := 1; id < bst.count; id++ {
		// Parents precede children in BFS order, so at(parent) is
		// already reconstructed.
		applyComparatorPermTable(st.add(bst.count), st.at(int(bst.parentOf[id])), n, alphabet[bst.ruleOf[id]])
	}
	return st, nil
}

// PermClosure enumerates every permutation behaviour reachable over
// the comparator alphabet, by BFS from the identity. Because a
// network's action on permutations is determined by its action on 0/1
// vectors (Floyd), this closure is in bijection with the binary one —
// asserted in the tests. Like Closure's, its enumeration order is the
// same on every run.
func PermClosure(n int, alphabet []network.Comparator, limit int) ([]PermBehavior, error) {
	st, err := permClosureStore(context.Background(), n, permInputTable(n), alphabet, limit)
	if err != nil {
		return nil, err
	}
	out := make([]PermBehavior, st.count)
	for i := range out {
		out[i] = PermBehavior(st.at(i))
	}
	return out, nil
}

// PermAcceptance judges one tabulated input/output pair: in and out
// are value sequences of length n.
type PermAcceptance func(n int, in, out []byte) bool

// PermSorterAccepts is the sorting property.
func PermSorterAccepts(n int, in, out []byte) bool { return bytesSorted(out) }

// PermSelectorAccepts returns the (k,n)-selector property: on a
// permutation of 1..n the first k outputs must be exactly 1..k.
func PermSelectorAccepts(k int) PermAcceptance {
	return func(n int, in, out []byte) bool {
		for i := 0; i < k; i++ {
			if out[i] != byte(i+1) {
				return false
			}
		}
		return true
	}
}

// PermMergerAccepts is the (n/2,n/2)-merger property; inputs with
// unsorted halves are accepted vacuously.
func PermMergerAccepts(n int, in, out []byte) bool {
	h := n / 2
	if !bytesSorted(in[:h]) || !bytesSorted(in[h:]) {
		return true
	}
	return bytesSorted(out)
}

func bytesSorted(b []byte) bool {
	for i := 1; i < len(b); i++ {
		if b[i-1] > b[i] {
			return false
		}
	}
	return true
}

// permFailureRows computes the failure row (a bitset over the n!
// input ranks, as raw words) of every incorrect behaviour in the
// store, in store order and with duplicates kept: pruneSupersetRows
// drops them as neighbours after its sort. A cancelled context stops
// the scan and returns the context's error. inputs is
// permInputTable(n).
func (st *behaviorStore) permFailureRows(ctx context.Context, n int, inputs []byte, accepts PermAcceptance) ([]maskRow, error) {
	ranks := len(inputs) / n
	nw := wordsFor(ranks)
	// Devirtualized fast path for the sorting property (the pipeline's
	// primary workload), mirroring eval.SortedJudge: the per-rank
	// closure call and slice-header setup are the dominant cost of the
	// generic loop.
	sorterFast := reflect.ValueOf(accepts).Pointer() == reflect.ValueOf(PermSorterAccepts).Pointer()
	scratch := make([]uint64, nw)
	var words []uint64 // the rows, nw words each
	for i := 0; i < st.count; i++ {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tab := st.at(i)
		empty := true
		clear(scratch)
		if sorterFast {
			for r, base := 0, 0; r < ranks; r, base = r+1, base+n {
				for j := base + 1; j < base+n; j++ {
					if tab[j-1] > tab[j] {
						scratch[r>>6] |= 1 << uint(r&63)
						empty = false
						break
					}
				}
			}
		} else {
			for r := 0; r < ranks; r++ {
				if !accepts(n, inputs[r*n:(r+1)*n], tab[r*n:(r+1)*n]) {
					scratch[r>>6] |= 1 << uint(r&63)
					empty = false
				}
			}
		}
		if !empty {
			words = append(words, scratch...)
		}
	}
	rows := make([]maskRow, len(words)/nw)
	for j := range rows {
		row := words[j*nw : (j+1)*nw : (j+1)*nw]
		rows[j] = maskRow{words: row, pc: countWords(row)}
	}
	return rows, nil
}

// PermFailureFamily computes the deduplicated, superset-pruned family
// of failure sets (over the n!-element input universe) of every
// incorrect behaviour, in canonical (popcount, content) order.
func PermFailureFamily(n int, behaviors []PermBehavior, accepts PermAcceptance) []*bitset.Set {
	inputs := permInputTable(n)
	ranks := len(inputs) / n
	seen := map[string]bool{}
	var fam []*bitset.Set
	for _, b := range behaviors {
		tab := []byte(string(b))
		s := bitset.New(ranks)
		for r := 0; r < ranks; r++ {
			if !accepts(n, inputs[r*n:(r+1)*n], tab[r*n:(r+1)*n]) {
				s.Add(r)
			}
		}
		if s.Empty() {
			continue
		}
		if k := s.Key(); !seen[k] {
			seen[k] = true
			fam = append(fam, s)
		}
	}
	return pruneSupersetSets(fam)
}

// HittingSetResult carries an exact or certified-optimal hitting set
// over bitset families.
type HittingSetResult struct {
	Elements *bitset.Set
	Size     int
	Exact    bool // true when optimality is certified
}

// MinHittingSetBits computes a minimum hitting set over bitset
// families. Strategy: superset pruning, forced singletons, element
// dominance, a deterministic greedy upper bound certified against the
// disjoint lower bound, and otherwise the branch-and-bound core of
// solver.go under a node budget. Exact is false only if the budget is
// exhausted before the search closes — callers treat that as
// "unknown", never as a bound.
func MinHittingSetBits(universe int, family []*bitset.Set, nodeBudget int) HittingSetResult {
	return MinHittingSetBitsWorkers(universe, family, nodeBudget, 1)
}

// MinHittingSetBitsWorkers is MinHittingSetBits with a worker pool
// for the branch and bound (workers ≤ 0 means GOMAXPROCS). The
// minimum cardinality matches the sequential solver's on every input.
func MinHittingSetBitsWorkers(universe int, family []*bitset.Set, nodeBudget, workers int) HittingSetResult {
	r, _ := MinHittingSetBitsCtx(context.Background(), universe, family, nodeBudget, workers)
	return r
}

// MinHittingSetBitsCtx is MinHittingSetBitsWorkers under a context:
// the branch and bound checks cancellation every nodeFlush nodes and
// a cancelled run returns the context's error with a zero result.
func MinHittingSetBitsCtx(ctx context.Context, universe int, family []*bitset.Set, nodeBudget, workers int) (HittingSetResult, error) {
	for _, s := range family {
		if s.Empty() {
			panic("search: empty set can never be hit")
		}
	}
	elems, exact, err := solveHitting(ctx, pruneSupersetRows(setRows(family)), int64(nodeBudget), workers)
	if err != nil {
		return HittingSetResult{}, err
	}
	chosen := bitset.New(universe)
	for _, e := range elems {
		chosen.Add(int(e))
	}
	return HittingSetResult{Elements: chosen, Size: chosen.Count(), Exact: exact}, nil
}

// greedyBits picks, repeatedly, the element covering the most sets,
// ties to the LOWEST element index (fixed-order count array, not a
// map) — the bitset-family reference for the solver's tie-break
// contract, like greedy in hitting.go.
func greedyBits(universe int, fam []*bitset.Set) *bitset.Set {
	uncovered := append([]*bitset.Set(nil), fam...)
	picked := bitset.New(universe)
	counts := make([]int, universe)
	for len(uncovered) > 0 {
		for i := range counts {
			counts[i] = 0
		}
		for _, s := range uncovered {
			s.ForEach(func(i int) bool {
				counts[i]++
				return true
			})
		}
		bestE, bestC := -1, 0
		for e, c := range counts {
			if c > bestC {
				bestE, bestC = e, c
			}
		}
		picked.Add(bestE)
		rest := uncovered[:0]
		for _, s := range uncovered {
			if !s.Contains(bestE) {
				rest = append(rest, s)
			}
		}
		uncovered = rest
	}
	return picked
}

// PermTestSetResult reports an exact minimum permutation test set.
type PermTestSetResult struct {
	N         int
	Height    int
	Behaviors int
	BadSets   int
	Size      int
	Exact     bool
	Tests     []perm.P
}

// String renders a one-line summary.
func (r PermTestSetResult) String() string {
	tag := "exact"
	if !r.Exact {
		tag = "upper bound only"
	}
	return fmt.Sprintf("n=%d height≤%d: %d behaviours, %d failure sets, min perm test set = %d (%s)",
		r.N, r.Height, r.Behaviors, r.BadSets, r.Size, tag)
}

// MinimumPermTestSet computes the exact minimum permutation-input test
// set for a property over networks of comparator height ≤ h on n
// lines. limit caps the behaviour closure, nodeBudget the hitting-set
// branch and bound (0 = defaults).
func MinimumPermTestSet(n, h int, accepts PermAcceptance, limit, nodeBudget int) (PermTestSetResult, error) {
	return MinimumPermTestSetOpts(n, h, accepts, Options{Limit: limit, NodeBudget: nodeBudget})
}

// MinimumPermTestSetOpts is MinimumPermTestSet with full pipeline
// options.
func MinimumPermTestSetOpts(n, h int, accepts PermAcceptance, opt Options) (PermTestSetResult, error) {
	return MinimumPermTestSetCtx(context.Background(), n, h, accepts, opt)
}

// MinimumPermTestSetCtx is MinimumPermTestSetOpts under a context
// (see MinimumTestSetCtx).
func MinimumPermTestSetCtx(ctx context.Context, n, h int, accepts PermAcceptance, opt Options) (PermTestSetResult, error) {
	if n > MaxPermLines {
		return PermTestSetResult{}, fmt.Errorf("search: n=%d too large for permutation-space search", n)
	}
	inputs := permInputTable(n)
	st, err := permClosureStore(ctx, n, inputs, Comparators(n, h), opt.Limit)
	if err != nil {
		return PermTestSetResult{}, err
	}
	raw, err := st.permFailureRows(ctx, n, inputs, accepts)
	if err != nil {
		return PermTestSetResult{}, err
	}
	rows := pruneSupersetRows(raw)
	// 0 keeps the historical 5M-node default for the (deeper) perm
	// search; a negative budget requests a genuinely unlimited run.
	budget := int64(opt.NodeBudget)
	if budget == 0 {
		budget = 5_000_000
	} else if budget < 0 {
		budget = 0
	}
	elems, exact, err := solveHitting(ctx, rows, budget, solverWorkers(opt.Workers))
	if err != nil {
		return PermTestSetResult{}, err
	}
	res := PermTestSetResult{
		N: n, Height: h,
		Behaviors: st.count,
		BadSets:   len(rows),
		Size:      len(elems),
		Exact:     exact,
	}
	vals := make([]int, len(elems)*n)
	for i, e := range elems {
		p := vals[i*n : (i+1)*n : (i+1)*n]
		for j, v := range inputs[int(e)*n : (int(e)+1)*n] {
			p[j] = int(v)
		}
		res.Tests = append(res.Tests, p)
	}
	return res, nil
}

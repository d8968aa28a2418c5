package main

import (
	"fmt"
	"math/rand"
	"sort"

	"sortnets"
	"sortnets/internal/bitvec"
	"sortnets/internal/canon"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/verify"
)

// A workload is one traffic mix: a shape (closed or open loop, how many
// connections, single-shot or batched) over a pool of seeded inputs.
// Units — one client.Pool call each — walk the pool in order and wrap.
// The distinct-network pools are larger than every Session cache (4096
// verdicts and programs, 8192 resolved texts), and an LRU under a
// cyclic scan longer than its capacity never hits, so a wrapped request
// costs exactly what a never-seen one does.
type workload struct {
	name      string
	replicas  int     // in-process sortnetd replicas; 2 turns peer fill on
	conns     int     // concurrent Pool callers, at most nproc
	rate      float64 // open loop: units per second; 0 is a closed loop
	batch     int     // requests per unit; 1 is single-shot Pool.Do
	repeat    int     // sends of each batch in a row
	warmUnits int     // units of the warm-up, over the warm inputs
	inputs    func(g *generator) (warm, timed []input)
}

// deepBatchRate is deep-batch's arrival rate in batches of 64 per
// second, about half its closed-loop capacity on a 2-core box; a 25 s
// run then holds over 1000 batches, enough for a p99.
const deepBatchRate = 44

// deepPool and faultPool size the distinct-network pools (see workload).
const (
	deepPool  = 10240
	faultPool = 16384
)

var workloads = map[string]*workload{
	// The engine never runs: every verdict is a cache hit, so client,
	// HTTP/JSON, admission, resolve memo, cache reads and encoding are
	// the whole cost.
	"hot-single": {
		name: "hot-single", replicas: 1, conns: 2, batch: 1, repeat: 1, warmUnits: 1024,
		inputs: func(g *generator) ([]input, []input) {
			hot := g.many(256, func(int) input { return g.small(false, sortnets.Request{}) })
			return hot, hot
		},
	},
	// The paper's worst case for a verifier: holding networks run the
	// whole minimal test set and H_σ about half of it. Not listed in
	// BENCHMARK.json: its open-loop latency follows the box's CPU speed
	// more than linearly, and its ten-seed spreads reached 0.30.
	"deep-batch": {
		name: "deep-batch", replicas: 1, conns: 2, rate: deepBatchRate, batch: 64, repeat: 1, warmUnits: 8,
		inputs: func(g *generator) ([]input, []input) {
			return g.many(8*64, g.deep), g.many(deepPool, g.deep)
		},
	},
	// Hundreds of short per-fault engine runs and stream replays per
	// request, and the exact hitting-set solver.
	"faults-mixed": {
		name: "faults-mixed", replicas: 1, conns: 2, batch: 1, repeat: 1, warmUnits: 256,
		inputs: func(g *generator) ([]input, []input) {
			return g.many(256, g.faultMix), g.many(faultPool, g.faultMix)
		},
	},
	// Round-robin sends each batch first to one replica, which
	// computes, then to the other, which adopts every verdict by peer
	// fill.
	"cluster-fill": {
		name: "cluster-fill", replicas: 2, conns: 1, batch: 32, repeat: 2, warmUnits: 8,
		inputs: func(g *generator) ([]input, []input) {
			return g.many(4*32, g.deep), g.many(deepPool, g.deep)
		},
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// unit returns the requests of unit k and the pool index of the first.
func (w *workload) unit(reqs []sortnets.Request, k int) ([]sortnets.Request, int) {
	first := (k / w.repeat * w.batch) % len(reqs)
	return reqs[first : first+w.batch], first
}

// distinct is how many different inputs the first units units send.
func (w *workload) distinct(units, pool int) int {
	return min((units+w.repeat-1)/w.repeat*w.batch, pool)
}

// kind records how an input network was built; the construction fixes
// its verdict for every kind but kindRandom.
type kind uint8

const (
	kindRandom   kind = iota // network.Random, judged exhaustively here
	kindSorter               // random prefix + gen.OddEvenMergeSort(n)
	kindAlmost               // core.AlmostSorter(σ): sorts every input but σ
	kindSelector             // random prefix + gen.Selection(n, 4)
	kindMerger               // gen.HalfMerger(n) + random suffix
)

// input is one generated request with what its construction fixes.
type input struct {
	req    sortnets.Request
	kind   kind
	n      int
	holds  bool   // the network has the property it is asked about
	sigma  string // kindAlmost: the one input H_σ fails
	digest string // canonical digest, distinct across a workload's inputs
}

func (in *input) property() verify.Property { return propertyOf(&in.req, in.n) }

// check reports whether v can be the verdict for in: right op and
// digest always, and for verify the verdict the construction forces —
// holding networks hold after the full minimal test set, H_σ fails
// with counterexample exactly σ (Lemma 2.1), and a random network
// holds iff it sorts all 2ⁿ inputs.
func (in *input) check(v *sortnets.Verdict) bool {
	op := in.req.Op
	if op == "" {
		op = sortnets.OpVerify
	}
	if v == nil || v.Op != op || v.Digest != in.digest {
		return false
	}
	if op != sortnets.OpVerify {
		return true // byte-compared against the reference on a sample
	}
	c, p := v.Check, in.property()
	switch {
	case c == nil || v.Property != p.Name() || c.Holds != in.holds:
		return false
	case in.kind == kindAlmost:
		return c.Counterexample == in.sigma
	case in.kind != kindRandom:
		return c.TestsRun == minimalSize(p)
	}
	return true
}

// propertyOf maps a request's property to the one the Session checks.
func propertyOf(req *sortnets.Request, n int) verify.Property {
	switch req.Property {
	case "selector":
		return verify.Selector{N: n, K: req.K}
	case "merger":
		return verify.Merger{N: n}
	}
	return verify.Sorter{N: n}
}

// minimalSize is |T| for the property's minimal 0/1 test set: 2ⁿ−n−1
// for sorters, Σ_{i≤k} C(n,i) − k − 1 for (k,n)-selectors and n²/4
// for mergers (Theorems 2.2, 2.4 and 2.5).
func minimalSize(p verify.Property) int {
	switch q := p.(type) {
	case verify.Selector:
		sum, c := 0, 1
		for i := 0; i <= q.K; i++ {
			sum += c
			c = c * (q.N - i) / (i + 1)
		}
		return sum - q.K - 1
	case verify.Merger:
		return q.N * q.N / 4
	}
	n := p.Lines()
	return 1<<uint(n) - n - 1
}

// inputSet is a workload's inputs, generated from the seed before any
// clock starts. Requests are also kept contiguously so that a batch
// unit is a sub-slice, never a copy.
type inputSet struct {
	warm, timed    []input
	warmReqs, reqs []sortnets.Request
}

func (w *workload) generate(seed int64) *inputSet {
	warm, timed := w.inputs(newGenerator(seed))
	in := &inputSet{warm: warm, timed: timed}
	for _, x := range warm {
		in.warmReqs = append(in.warmReqs, x.req)
	}
	for _, x := range timed {
		in.reqs = append(in.reqs, x.req)
	}
	return in
}

// generator draws inputs whose canonical digests are all distinct, so
// two requests of a workload share a cache entry only when the
// workload repeats one on purpose.
type generator struct {
	rng  *rand.Rand
	seen map[string]bool
	i    int // inputs drawn so far
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

func (g *generator) many(n int, draw func(i int) input) []input {
	out := make([]input, n)
	for i := range out {
		out[i] = draw(g.i)
		g.i++
	}
	return out
}

// add registers w unless its canonical form was drawn before.
func (g *generator) add(w *network.Network, k kind, req sortnets.Request, holds bool) (input, bool) {
	_, digest := canon.Canonicalize(w)
	if g.seen[digest] {
		return input{}, false
	}
	g.seen[digest] = true
	req.Network = w.Format()
	return input{req: req, kind: k, n: w.N, holds: holds, digest: digest}, true
}

// prefix is 4 to 11 random comparators on n lines.
func (g *generator) prefix(n int) *network.Network {
	return network.Random(n, 4+g.rng.Intn(8), g.rng)
}

// deepSlots is one 32-entry stretch of the deep mix, n ∈ 12..16: 14
// holding sorters, 11 Lemma 2.1 almost-sorters H_σ, 4 holding
// (4,n)-selectors and 3 holding mergers. Every batch of 32 or 64 holds
// each (kind, width) cell equally often, so batches differ only in
// their random draws; with a random mix, the few batches that happen
// to collect many 16-line H_σ would set the tail on their own.
var deepSlots = func() []slot {
	var out []slot
	for k, count := range map[kind]int{kindSorter: 14, kindAlmost: 11, kindSelector: 4} {
		for j := 0; j < count; j++ {
			out = append(out, slot{k, 12 + (j+int(k))%5})
		}
	}
	for _, n := range []int{12, 14, 16} {
		out = append(out, slot{kindMerger, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].k != out[j].k {
			return out[i].k < out[j].k
		}
		return out[i].n < out[j].n
	})
	return out
}()

type slot struct {
	k kind
	n int
}

// deep draws input i of the deep mix: the kind and width of its slot,
// with a random prefix (sorters, selectors), suffix (mergers) or σ.
func (g *generator) deep(i int) input {
	s := deepSlots[i%len(deepSlots)]
	for {
		var in input
		var ok bool
		switch s.k {
		case kindSorter:
			in, ok = g.add(g.prefix(s.n).Append(gen.OddEvenMergeSort(s.n)), kindSorter, sortnets.Request{}, true)
		case kindAlmost:
			sigma := g.unsorted(s.n)
			h, err := core.AlmostSorter(sigma)
			if err != nil {
				panic(fmt.Sprintf("almost-sorter of unsorted %v: %v", sigma, err))
			}
			in, ok = g.add(h, kindAlmost, sortnets.Request{}, false)
			in.sigma = sigma.String()
		case kindSelector:
			in, ok = g.add(g.prefix(s.n).Append(gen.Selection(s.n, 4)), kindSelector, sortnets.Request{Property: "selector", K: 4}, true)
		default:
			in, ok = g.add(gen.HalfMerger(s.n).Append(g.prefix(s.n)), kindMerger, sortnets.Request{Property: "merger"}, true)
		}
		if ok {
			return in
		}
	}
}

// unsorted draws a uniformly random non-sorted σ ∈ {0,1}ⁿ.
func (g *generator) unsorted(n int) bitvec.Vec {
	for {
		if v := bitvec.New(n, g.rng.Uint64()&(1<<uint(n)-1)); !v.IsSorted() {
			return v
		}
	}
}

// small draws one 8-line network: a holding sorter (random prefix +
// gen.OddEvenMergeSort(8)) or 20 random comparators, whose sorter-ness
// is decided here on all 256 inputs.
func (g *generator) small(sorter bool, req sortnets.Request) input {
	for {
		if sorter {
			if in, ok := g.add(g.prefix(8).Append(gen.OddEvenMergeSort(8)), kindSorter, req, true); ok {
				return in
			}
			continue
		}
		w := network.Random(8, 20, g.rng)
		if in, ok := g.add(w, kindRandom, req, eval.Compile(w).SortsAll()); ok {
			return in
		}
	}
}

// faultMix alternates faults and exact minset requests, and within
// each op holding sorters and random networks, so every quarter of the
// pool is one combination.
func (g *generator) faultMix(i int) input {
	req := sortnets.Request{Op: sortnets.OpFaults}
	if i%2 == 1 {
		req = sortnets.Request{Op: sortnets.OpMinset, Exact: true}
	}
	return g.small(i/2%2 == 0, req)
}

package eval

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
	"sortnets/internal/widevec"
)

// Judge decides, word-parallel, which lanes of an evaluated block
// violate the property under test. Rejects fills bad (one word per 64
// lanes, len(bad) = out.W) with the mask of REJECTED lanes; the engine
// masks it to the occupied lanes. in holds the pre-evaluation lane
// contents and is only loaded when NeedsInput is set (the sorter judge
// never looks at it, so the engine skips the copy entirely); in the
// fault pass it holds the healthy circuit's outputs instead.
type Judge struct {
	NeedsInput bool
	Rejects    func(in, out *network.Batch, bad []uint64)
	sorted     bool // devirtualized fast path: reject = out.UnsortedLanes
}

// SortedJudge rejects lanes whose outputs are not sorted — the
// sorting property, judged in one word-parallel pass with no input
// batch. The engine special-cases it to avoid the closure call on
// the hottest loop.
func SortedJudge() Judge {
	return Judge{
		sorted:  true,
		Rejects: func(_, out *network.Batch, bad []uint64) { out.UnsortedLanes(bad) },
	}
}

// PerLaneJudge adapts a scalar acceptance predicate to the batch
// engine: the network evaluation — the expensive part — stays
// word-parallel, only the judgment is per lane. Lanes are read as
// bitvec vectors, so it serves n ≤ 64.
func PerLaneJudge(accepts func(in, out bitvec.Vec) bool) Judge {
	return Judge{
		NeedsInput: true,
		Rejects: func(in, out *network.Batch, bad []uint64) {
			clear(bad)
			for lane := 0; lane < out.Lanes; lane++ {
				if !accepts(in.Lane(lane), out.Lane(lane)) {
					bad[lane>>6] |= 1 << uint(lane&63)
				}
			}
		},
	}
}

// Verdict is the outcome of streaming a test-vector family through a
// program.
type Verdict struct {
	Holds    bool
	TestsRun int
	In, Out  bitvec.Vec // counterexample input/output, valid when !Holds
}

// WideVerdict is Verdict for a row source (RunWideCtx), with the
// counterexample as wide vectors.
type WideVerdict struct {
	Holds    bool
	TestsRun int
	In, Out  widevec.Vec
}

// Engine runs a compiled program over streamed test vectors with an
// engine-owned worker pool. The workers parameter fixes the pool
// size: 1 pins strictly sequential, stream-order execution; k > 1
// forces k workers; 0 ("auto") runs sequentially below a work
// threshold and with runtime.GOMAXPROCS(0) workers above it, so small
// verdicts never pay goroutine overhead and large sweeps never leave
// cores idle.
type Engine struct {
	p       *Program
	workers int // 0 = auto
}

// New returns an engine over p. workers ≤ 0 selects auto mode.
func New(p *Program, workers int) *Engine {
	if workers < 0 {
		workers = 0
	}
	return &Engine{p: p, workers: workers}
}

// Sequential-vs-parallel threshold for auto mode, in units of
// op-lanes (test vectors × program steps). Below it a pool costs more
// than it saves.
const autoWorkThreshold = 1 << 17

// Lanes per producer chunk in the parallel path: 16 full blocks per
// handoff keeps channel traffic negligible.
const chunkLanes = 16 * maxLanes

// Run streams the iterator's vectors through the program in
// word-parallel blocks and judges each block, returning on the first
// rejected lane. With one worker the counterexample is the first
// failure in stream order. With a pool, a span (bitvec.All, or
// NotSorted of it) still reports the first failure in stream order;
// any other line source runs on one worker whatever the setting; any
// other stream reports the first failure some worker found, with
// TestsRun counting the vectors handed out before the pool drained.
// bitvec vectors hold at most 64 lines, so Run needs n ≤ 64;
// RunWideCtx is the same run over row sources of any width.
func (e *Engine) Run(it bitvec.Iterator, judge Judge) Verdict {
	v, _ := e.RunCtx(context.Background(), it, judge)
	return v
}

// RunCtx is Run under a context: cancellation is checked once per
// block (never per vector, so the hot loop stays word-parallel). On
// cancellation it returns a zero Verdict and ctx.Err(); a failure
// found before the cancellation was observed is still reported with a
// nil error.
func (e *Engine) RunCtx(ctx context.Context, it bitvec.Iterator, judge Judge) (Verdict, error) {
	if e.p.n > bitvec.MaxN {
		panic(fmt.Sprintf("eval: Run streams bitvec vectors of at most 64 lines, program has %d", e.p.n))
	}
	src := vecStream(it)
	o, err := e.run(ctx, &src, judge)
	return o.Verdict, err
}

// RunWideCtx is RunCtx over a row source, the typed entry for vectors
// wider than bitvec holds: the same blocks, judges, worker rules and
// first-failure rule, with the counterexample read back as wide
// vectors.
func (e *Engine) RunWideCtx(ctx context.Context, src RowSource, judge Judge) (WideVerdict, error) {
	o, err := e.run(ctx, &stream{rows: src}, judge)
	v := WideVerdict{Holds: o.Holds, TestsRun: o.TestsRun, In: o.wideIn, Out: o.wideOut}
	if n := e.p.n; err == nil && !o.Holds && n <= bitvec.MaxN {
		v.In, v.Out = widevec.FromWords(n, []uint64{o.In.Bits}), widevec.FromWords(n, []uint64{o.Out.Bits})
	}
	return v, err
}

// run picks the block loop for the engine's worker setting: one
// worker runs runSeq, a pool runs a span by slabs (spanPool) and any
// other stream but a line source through runPool. Every other line
// source runs on one worker.
func (e *Engine) run(ctx context.Context, src *stream, judge Judge) (outcome, error) {
	sp, _ := src.lines.(*bitvec.Span)
	workers := e.workers
	switch {
	case src.lines != nil && sp == nil:
		workers = 1
	case workers == 0:
		workers = e.autoWorkers(src, sp)
	}
	switch {
	case workers == 1:
		return e.runSeq(ctx, src, judge)
	case sp != nil:
		return e.spanPool(ctx, sp, judge, workers)
	default:
		return e.runPool(ctx, src, judge, workers)
	}
}

// autoWorkers is auto mode's worker count: 1 for a stream shorter
// than the work threshold, GOMAXPROCS for a longer one. A span knows
// its length; any other stream is staged until it crosses the
// threshold or ends, and the staged rows are replayed ahead of its
// live tail.
func (e *Engine) autoWorkers(src *stream, sp *bitvec.Span) int {
	budget := autoWorkThreshold/max(len(e.p.ops), 1) + 1
	k := 0
	if sp != nil {
		k = min(sp.Len(), budget)
	} else {
		R := rowWords(e.p.n)
		staged := make([]uint64, budget*R)
		k = src.fill(staged, R, budget)
		src.head = staged[:k*R]
	}
	if k < budget {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// runSeq is the sequential block loop. Block sizes ramp 64 → 128 →
// 256 lanes: a stream that fails in its first tests (the common case
// for random networks) should not pay a full block of enumeration
// before the engine looks.
//
//sortnets:ctxloop
func (e *Engine) runSeq(ctx context.Context, src *stream, judge Judge) (outcome, error) {
	b := getBlock(e.p.n)
	defer blockPool.Put(b)
	tests := 0
	for lim := network.LanesPerWord; ; lim = min(2*lim, maxLanes) {
		if err := ctx.Err(); err != nil {
			return outcome{}, err
		}
		k, m := b.step(src, lim, judge.NeedsInput)
		if k == 0 {
			return outcome{Verdict: Verdict{Holds: true, TestsRun: tests}}, nil
		}
		if lane := b.judge(e.p, &judge); lane >= 0 {
			// The lowest rejected lane is the first failure in stream
			// order; report the tests consumed up to and including it,
			// exactly as a one-vector-at-a-time engine would.
			return b.failure(b.rows, lane, tests), nil
		}
		tests += m
	}
}

//sortnets:ctxloop
func (e *Engine) runPool(ctx context.Context, src *stream, judge Judge, workers int) (outcome, error) {
	R := rowWords(e.p.n)
	chunks := make(chan []uint64, workers)
	fails := make(chan outcome, workers)
	stop := make(chan struct{})
	var stopOnce sync.Once

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := getBlock(e.p.n)
			defer blockPool.Put(b)
			for chunk := range chunks {
				for off := 0; off < len(chunk); off += maxLanes * R {
					if ctx.Err() != nil {
						return
					}
					rows := chunk[off:min(off+maxLanes*R, len(chunk))]
					b.load(rows, len(rows)/R, judge.NeedsInput)
					if lane := b.judge(e.p, &judge); lane >= 0 {
						select {
						case fails <- b.failure(rows, lane, 0):
						default:
						}
						stopOnce.Do(func() { close(stop) })
						return
					}
				}
			}
		}()
	}

	tests := 0
feed:
	for {
		if ctx.Err() != nil {
			break
		}
		chunk := make([]uint64, chunkLanes*R)
		k := src.fill(chunk, R, chunkLanes)
		if k == 0 {
			break
		}
		tests += k
		select {
		case chunks <- chunk[:k*R]:
		case <-stop:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(chunks)
	wg.Wait()
	close(fails)
	if f, ok := <-fails; ok {
		f.TestsRun = tests
		return f, nil
	}
	if err := ctx.Err(); err != nil {
		return outcome{}, err
	}
	return outcome{Verdict: Verdict{Holds: true, TestsRun: tests}}, nil
}

// RunUniverse judges the program against all 2ⁿ binary inputs — the
// exhaustive ground-truth sweep — as a run over the span of the whole
// universe, loaded wholesale (six fixed masks and constant words)
// instead of transposed lane by lane.
func (e *Engine) RunUniverse(judge Judge) Verdict {
	v, _ := e.RunUniverseCtx(context.Background(), judge)
	return v
}

// RunUniverseCtx is RunUniverse under a context, checked once per
// block, and once per slab under the pool.
func (e *Engine) RunUniverseCtx(ctx context.Context, judge Judge) (Verdict, error) {
	if n := e.p.n; n > 30 {
		panic(fmt.Sprintf("eval: RunUniverse sweeps 2^%d inputs; n is too wide", n))
	}
	o, err := e.run(ctx, &stream{lines: bitvec.All(e.p.n)}, judge)
	return o.Verdict, err
}

// spanPool judges a span on a pool: its words are cut into slabs of
// 4096 (each but the first starting on a multiple of 4096), every
// slab runs through runSeq on whichever worker claims it, and the
// failure in the lowest failing slab wins, its position moved from
// the slab's stream to the span's. So a pool reports the first
// failure in stream order, exactly as one worker does. (No ctxloop
// annotation: the loop and its per-claim ctx check live in
// ForEachUntilCtx.)
func (e *Engine) spanPool(ctx context.Context, sp *bitvec.Span, judge Judge, workers int) (outcome, error) {
	const slab = 1 << 12
	from, to := sp.Words()
	first := from / slab
	slabStart := func(i int) uint64 { return max(from, (first+uint64(i))*slab) }
	slabs := 0
	if from < to {
		slabs = int((to-1)/slab - first + 1)
	}
	var mu sync.Mutex
	var found outcome
	foundSlab := slabs
	hit, err := ForEachUntilCtx(ctx, slabs, workers, func(i int) bool {
		part := sp.Sub(slabStart(i), min(to, slabStart(i+1)))
		o, err := e.runSeq(ctx, &stream{lines: &part}, judge)
		if err != nil || o.Holds {
			return false
		}
		mu.Lock()
		if i < foundSlab {
			foundSlab, found = i, o
		}
		mu.Unlock()
		return true
	})
	if hit < 0 {
		if err != nil {
			return outcome{}, err
		}
		return outcome{Verdict: Verdict{Holds: true, TestsRun: sp.Len()}}, nil
	}
	before := sp.Sub(from, slabStart(foundSlab))
	found.TestsRun += before.Len()
	return found, nil
}

// transpose64 transposes a 64×64 bit matrix in place (the recursive
// block-swap of Hacker's Delight §7-3, phrased for LSB-first rows):
// afterwards a[i] bit j equals the old a[j] bit i. This is how the
// engine turns 64 stream vectors into the per-line word layout in
// 64·log₂64 word ops instead of 64·n single-bit inserts.
//
//sortnets:hotpath
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			// Swap the top-right and bottom-left j×j sub-blocks of
			// each 2j×2j block: bit c|j of row k ↔ bit c of row k+j.
			t := (a[k]>>j ^ a[k+int(j)]) & m
			a[k] ^= t << j
			a[k+int(j)] ^= t
		}
		m ^= m << (j >> 1)
	}
}

// TransposeRows writes into dst the transpose of the k×n bit matrix
// src, 64×64 bits at a time through transpose64: row i of src is
// src[i*⌈n/64⌉ : (i+1)*⌈n/64⌉], column j of src becomes row j of dst,
// dst[j*⌈k/64⌉ : (j+1)*⌈k/64⌉], and bit i of that row is bit j of src
// row i. Every word of dst is written. The fault detection matrix turns
// its per-fault rows into per-test signatures with it, and the
// hitting-set solver its families' element masks into each element's
// family cover.
func TransposeRows(dst, src []uint64, k, n int) {
	sw, dw := (n+63)/64, (k+63)/64
	var block [64]uint64
	for rb := 0; rb < dw; rb++ {
		for cb := 0; cb < sw; cb++ {
			for r := range block {
				block[r] = 0
				if i := rb<<6 + r; i < k {
					block[r] = src[i*sw+cb]
				}
			}
			transpose64(&block)
			for c, w := range block {
				if j := cb<<6 + c; j < n {
					dst[j*dw+rb] = w
				}
			}
		}
	}
}

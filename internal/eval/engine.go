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
// never looks at it, so the engine skips the copy entirely).
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
// word-parallel, only the judgment is per lane.
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

// WideVerdict is the n > 64 counterpart of Verdict.
type WideVerdict struct {
	Holds    bool
	TestsRun int
	In, Out  widevec.Vec
}

// WideIterator streams wide binary vectors; core.WideIterator
// satisfies it structurally.
type WideIterator interface {
	Next() (widevec.Vec, bool)
}

// Engine runs a compiled program over streamed test vectors with an
// engine-owned worker pool. The workers parameter fixes the pool
// size: 1 pins strictly sequential, stream-order execution; k > 1
// forces k workers; 0 ("auto") runs sequentially below a work
// threshold and with runtime.NumCPU() workers above it, so small
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
// failure in stream order; with a pool it is the first failure some
// worker found, and TestsRun counts the vectors handed out before the
// pool drained. Requires n ≤ 64 (use RunWide beyond).
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
		panic(fmt.Sprintf("eval: Run needs n ≤ 64, program has %d lines (use RunWide)", e.p.n))
	}
	workers := e.workers
	if workers == 0 {
		// Auto: stage vectors until the work estimate crosses the
		// threshold; a stream that ends first runs sequentially.
		perVec := len(e.p.ops)
		if perVec == 0 {
			perVec = 1
		}
		budget := autoWorkThreshold/perVec + 1
		staged := make([]bitvec.Vec, 0, budget)
		exhausted := false
		for len(staged) < budget {
			v, ok := it.Next()
			if !ok {
				exhausted = true
				break
			}
			staged = append(staged, v)
		}
		if exhausted {
			return e.runSeq(ctx, bitvec.Slice(staged), judge)
		}
		return e.runPool(ctx, &chainIter{head: staged, tail: it}, judge, runtime.NumCPU())
	}
	if workers == 1 {
		return e.runSeq(ctx, it, judge)
	}
	return e.runPool(ctx, it, judge, workers)
}

// chainIter replays a staged prefix, then drains the live tail.
type chainIter struct {
	head []bitvec.Vec
	i    int
	tail bitvec.Iterator
}

func (c *chainIter) Next() (bitvec.Vec, bool) {
	if c.i < len(c.head) {
		v := c.head[c.i]
		c.i++
		return v, true
	}
	return c.tail.Next()
}

// runSeq is the sequential block loop. Block sizes ramp 64 → 128 →
// 256 lanes: a stream that fails in its first tests (the common case
// for random networks) should not pay a full block of enumeration
// before the engine looks.
//
//sortnets:ctxloop
func (e *Engine) runSeq(ctx context.Context, it bitvec.Iterator, judge Judge) (Verdict, error) {
	b := getBlock(e.p.n)
	defer blockPool.Put(b)
	tests := 0
	for lim := network.LanesPerWord; ; lim = min(2*lim, maxLanes) {
		if err := ctx.Err(); err != nil {
			return Verdict{}, err
		}
		k := b.fill(it, lim)
		if k == 0 {
			return Verdict{Holds: true, TestsRun: tests}, nil
		}
		b.load(b.vecs[:k], judge.NeedsInput)
		if lane := b.judge(e.p, &judge); lane >= 0 {
			// The lowest rejected lane is the first failure in stream
			// order; report the tests consumed up to and including it,
			// exactly as a one-vector-at-a-time engine would.
			return b.verdict(b.vecs[:k], lane, tests), nil
		}
		tests += k
	}
}

//sortnets:ctxloop
func (e *Engine) runPool(ctx context.Context, it bitvec.Iterator, judge Judge, workers int) (Verdict, error) {
	chunks := make(chan []bitvec.Vec, workers)
	fails := make(chan Verdict, workers)
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
				for off := 0; off < len(chunk); off += maxLanes {
					if ctx.Err() != nil {
						return
					}
					src := chunk[off:min(off+maxLanes, len(chunk))]
					b.load(src, judge.NeedsInput)
					if lane := b.judge(e.p, &judge); lane >= 0 {
						select {
						case fails <- b.verdict(src, lane, 0):
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
		chunk := make([]bitvec.Vec, 0, chunkLanes)
		for len(chunk) < chunkLanes {
			v, ok := it.Next()
			if !ok {
				break
			}
			chunk = append(chunk, v)
		}
		if len(chunk) == 0 {
			break
		}
		tests += len(chunk)
		select {
		case chunks <- chunk:
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
		return Verdict{}, err
	}
	return Verdict{Holds: true, TestsRun: tests}, nil
}

// RunUniverse judges the program against all 2ⁿ binary inputs — the
// exhaustive ground-truth sweep — loading consecutive inputs
// wholesale (six fixed masks and constant words) instead of
// transposing lane by lane.
func (e *Engine) RunUniverse(judge Judge) Verdict {
	v, _ := e.RunUniverseCtx(context.Background(), judge)
	return v
}

// RunUniverseCtx is RunUniverse under a context, checked once per
// block on the sequential path and once per slab under the pool.
func (e *Engine) RunUniverseCtx(ctx context.Context, judge Judge) (Verdict, error) {
	n := e.p.n
	if n > 30 {
		panic(fmt.Sprintf("eval: RunUniverse sweeps 2^%d inputs; n is too wide", n))
	}
	if n > 6 && e.workers != 1 {
		workers := e.workers
		if workers == 0 {
			if (uint64(len(e.p.ops))+1)<<uint(n) >= autoWorkThreshold {
				workers = runtime.NumCPU()
			} else {
				workers = 1
			}
		}
		if workers > 1 {
			return e.universePool(ctx, judge, workers)
		}
	}
	return e.universeRange(ctx, judge, 0, uint64(bitvec.Universe(n)))
}

// universeRange sweeps inputs [from, to) in blocks ramping 64 → 128 →
// 256 lanes, like runSeq; from must be a multiple of 64 (or 0). On
// failure TestsRun is the count swept within this range up to and
// including the failing input.
//
//sortnets:ctxloop
func (e *Engine) universeRange(ctx context.Context, judge Judge, from, to uint64) (Verdict, error) {
	b := getBlock(e.p.n)
	defer blockPool.Put(b)
	tests := 0
	for lim := network.LanesPerWord; from < to; lim = min(2*lim, maxLanes) {
		if err := ctx.Err(); err != nil {
			return Verdict{}, err
		}
		k := int(min(to-from, uint64(lim)))
		b.out.LoadConsecutive(from, k)
		if judge.NeedsInput {
			b.mirror()
		}
		if lane := b.judge(e.p, &judge); lane >= 0 {
			return Verdict{
				Holds:    false,
				TestsRun: tests + lane + 1,
				In:       bitvec.New(e.p.n, from+uint64(lane)),
				Out:      b.out.Lane(lane),
			}, nil
		}
		tests += k
		from += uint64(k)
	}
	return Verdict{Holds: true, TestsRun: tests}, nil
}

// universePool shards the universe into contiguous slabs handed to
// NumCPU-bounded workers; the first failure (lowest slab) wins. The
// slab size is a multiple of 64, so every slab starts on a word
// boundary. (No ctxloop annotation: the loop and its per-claim ctx
// check live in ForEachUntilCtx.)
func (e *Engine) universePool(ctx context.Context, judge Judge, workers int) (Verdict, error) {
	n := e.p.n
	total := uint64(bitvec.Universe(n))
	const slab = 1 << 12
	slabs := int((total + slab - 1) / slab)
	var mu sync.Mutex
	found := Verdict{Holds: true}
	foundSlab := slabs
	hit, err := ForEachUntilCtx(ctx, slabs, workers, func(i int) bool {
		from := uint64(i) * slab
		v, err := e.universeRange(ctx, judge, from, min(from+slab, total))
		if err != nil || v.Holds {
			return false
		}
		mu.Lock()
		if i < foundSlab {
			foundSlab, found = i, v
		}
		mu.Unlock()
		return true
	})
	if hit < 0 {
		if err != nil {
			return Verdict{}, err
		}
		return Verdict{Holds: true, TestsRun: int(total)}, nil
	}
	found.TestsRun = foundSlab*slab + found.TestsRun
	return found, nil
}

// RunWide streams wide vectors (n > 64 regime) through a pure
// program, judging each with the scalar predicate; pooled above the
// auto threshold exactly like Run. accepts sees the input and output
// vector of one test.
func (e *Engine) RunWide(it WideIterator, accepts func(in, out widevec.Vec) bool) WideVerdict {
	v, _ := e.RunWideCtx(context.Background(), it, accepts)
	return v
}

// RunWideCtx is RunWide under a context, checked between test vectors
// (one wide evaluation is already a block's worth of work).
func (e *Engine) RunWideCtx(ctx context.Context, it WideIterator, accepts func(in, out widevec.Vec) bool) (WideVerdict, error) {
	pairs := e.p.Pairs() // also asserts purity once, up front
	workers := e.workers
	if workers == 0 {
		perVec := len(pairs)
		if perVec == 0 {
			perVec = 1
		}
		budget := autoWorkThreshold/perVec + 1
		staged := make([]widevec.Vec, 0, budget)
		exhausted := false
		for len(staged) < budget {
			v, ok := it.Next()
			if !ok {
				exhausted = true
				break
			}
			staged = append(staged, v)
		}
		if exhausted {
			return e.runWideSeq(ctx, &wideChain{head: staged}, accepts)
		}
		return e.runWidePool(ctx, &wideChain{head: staged, tail: it}, accepts, runtime.NumCPU())
	}
	if workers == 1 {
		return e.runWideSeq(ctx, it, accepts)
	}
	return e.runWidePool(ctx, it, accepts, workers)
}

type wideChain struct {
	head []widevec.Vec
	i    int
	tail WideIterator
}

func (c *wideChain) Next() (widevec.Vec, bool) {
	if c.i < len(c.head) {
		v := c.head[c.i]
		c.i++
		return v, true
	}
	if c.tail == nil {
		return widevec.Vec{}, false
	}
	return c.tail.Next()
}

//sortnets:ctxloop
func (e *Engine) runWideSeq(ctx context.Context, it WideIterator, accepts func(in, out widevec.Vec) bool) (WideVerdict, error) {
	tests := 0
	for {
		if err := ctx.Err(); err != nil {
			return WideVerdict{}, err
		}
		v, ok := it.Next()
		if !ok {
			return WideVerdict{Holds: true, TestsRun: tests}, nil
		}
		tests++
		out := e.p.ApplyWide(v)
		if !accepts(v, out) {
			return WideVerdict{Holds: false, TestsRun: tests, In: v, Out: out}, nil
		}
	}
}

const wideChunk = 64

//sortnets:ctxloop
func (e *Engine) runWidePool(ctx context.Context, it WideIterator, accepts func(in, out widevec.Vec) bool, workers int) (WideVerdict, error) {
	if workers < 1 {
		workers = 1
	}
	chunks := make(chan []widevec.Vec, workers)
	fails := make(chan WideVerdict, workers)
	stop := make(chan struct{})
	var stopOnce sync.Once

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range chunks {
				for _, v := range chunk {
					if ctx.Err() != nil {
						return
					}
					out := e.p.ApplyWide(v)
					if !accepts(v, out) {
						select {
						case fails <- WideVerdict{Holds: false, In: v, Out: out}:
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
		chunk := make([]widevec.Vec, 0, wideChunk)
		for len(chunk) < wideChunk {
			v, ok := it.Next()
			if !ok {
				break
			}
			chunk = append(chunk, v)
		}
		if len(chunk) == 0 {
			break
		}
		tests += len(chunk)
		select {
		case chunks <- chunk:
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
		return WideVerdict{}, err
	}
	return WideVerdict{Holds: true, TestsRun: tests}, nil
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

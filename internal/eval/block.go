package eval

import (
	"math/bits"
	"sync"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
	"sortnets/internal/widevec"
)

// RowSource is a test-vector stream that stages its vectors in
// bulk: FillRows writes up to lim of its next vectors into dst as
// consecutive rows of ⌈n/64⌉ words (line i in bit i&63 of word i>>6,
// every word written and no bit set at or beyond line n) and returns
// how many it wrote; fewer than lim means the stream is exhausted. The
// selector and merger test sets of package core implement it at every
// width. RunWideCtx consumes one; RunCtx and RunManyCtx pick one up
// from a bitvec.Iterator that implements it.
type RowSource interface {
	FillRows(dst []uint64, lim int) int
}

// LineSource is a test-vector stream that writes a block's line words
// itself, with no staging rows or transpose. FillLines writes its next
// block of at most lim lanes (lim a multiple of 64) into dst, line i's
// word g at dst[i·W+g] with W = ⌈lanes/64⌉, and sets holes[:W] to the
// block's lanes that are not stream vectors, which the judge never
// rejects. It returns the lanes written, 0 once the stream is
// exhausted, and how many of them are stream vectors. Lane returns the
// vector on lane j of the block last written. A bitvec.Span and the
// permutation thresholds of package core are line sources; RunCtx and
// RunManyCtx pick one up from a bitvec.Iterator that implements it.
type LineSource interface {
	FillLines(dst []uint64, lim int, holes []uint64) (lanes, tests int)
	Lane(j int) bitvec.Vec
}

// stream is a run's vector source: a line source, loaded a block at a
// time, or rows already staged (auto mode's probe) followed by a row
// source or a plain bitvec iterator.
type stream struct {
	lines LineSource
	head  []uint64
	rows  RowSource
	vecs  bitvec.Iterator
}

// vecStream is the stream of a bitvec iterator: a line source when it
// is one, so the block engine loads it wholesale, and a row source
// when it is one, so its rows are staged in bulk.
func vecStream(it bitvec.Iterator) stream {
	switch s := it.(type) {
	case LineSource:
		return stream{lines: s}
	case RowSource:
		return stream{rows: s}
	}
	return stream{vecs: it}
}

// fill stages up to lim vectors of R words each into dst and returns
// how many it staged; fewer than lim means the stream is exhausted.
// It is how every row-staging path (the block step, the pool's
// producer, Sweep) draws vectors; a line source's vectors reach it
// only through Next.
//
//sortnets:hotpath
func (s *stream) fill(dst []uint64, R, lim int) int {
	k := min(lim, len(s.head)/R)
	copy(dst, s.head[:k*R])
	s.head = s.head[k*R:]
	if rs := s.rows; rs != nil {
		k += rs.FillRows(dst[k*R:], lim-k)
	} else if it := s.vecs; it != nil {
		for ; k < lim; k++ {
			v, ok := it.Next()
			if !ok {
				break
			}
			dst[k] = v.Bits
		}
	}
	return k
}

// rowWords is the staging row length for n lines.
func rowWords(n int) int { return max(1, (n+network.LanesPerWord-1)/network.LanesPerWord) }

// block is a worker's reusable evaluation state: a staging area of up
// to maxLanes rows, the transpose scratch, the in/out batches and the
// rejected-lane mask. Every run path (Run's and RunWideCtx's
// sequential loop and pool, RunUniverse, RunMany, the fault pass)
// loads, evaluates and judges through it, so there is one block
// schedule and one first-failure rule at every width.
type block struct {
	R       int      // words per staged row, ⌈n/64⌉
	rows    []uint64 // staged vectors, row j at [j·R, (j+1)·R)
	t       [network.LanesPerWord]uint64
	in, out network.Batch
	bad     [maxWords]uint64
	// A line-source block (lines set) was written by lines, which
	// reads its lanes back; holes marks its lanes that are not in the
	// stream, which the judge never rejects.
	lines LineSource
	holes [maxWords]uint64
	// The fault pass's scratch: the healthy run's line states, its
	// outputs as a batch over the last of them, and the faults still
	// in the pass.
	saved   []uint64
	healthy network.Batch
	active  []int
}

// blockPool recycles blocks: a block is a few KiB plus its batches,
// and a serve path running one short verify per request would
// otherwise make that garbage per request.
var blockPool sync.Pool

// getBlock checks a block out of the pool with staging rows and
// batches for n lines, growing them when a previous user had fewer.
func getBlock(n int) *block {
	b, _ := blockPool.Get().(*block)
	if b == nil {
		b = new(block)
	}
	b.R = rowWords(n)
	if cap(b.rows) < maxLanes*b.R {
		b.rows = make([]uint64, maxLanes*b.R)
	}
	if cap(b.out.Lines) < n*maxWords {
		b.in.Lines = make([]uint64, 0, n*maxWords)
		b.out.Lines = make([]uint64, 0, n*maxWords)
	}
	b.rows = b.rows[:maxLanes*b.R]
	b.in.N, b.out.N = n, n
	return b
}

// step loads the stream's next block of at most lim lanes (lim ≥
// 64): a line source's line words as it writes them (a span's words
// wholesale, through LoadConsecutive, with no enumeration or
// transpose), any other stream's vectors staged as rows and
// transposed. It returns the lanes loaded, 0 once the stream is
// exhausted, and how many of them are stream vectors (lanes minus a
// line-source block's holes). It is the one load step of runSeq and
// RunMany.
//
//sortnets:hotpath
func (b *block) step(src *stream, lim int, needsInput bool) (lanes, tests int) {
	if ls := src.lines; ls != nil {
		lanes, tests = ls.FillLines(b.out.Lines[:cap(b.out.Lines)], lim, b.holes[:])
		if lanes > 0 {
			W := (lanes + network.LanesPerWord - 1) / network.LanesPerWord
			b.out.W, b.out.Lanes, b.out.Lines = W, lanes, b.out.Lines[:b.out.N*W]
			b.lines = ls
			if needsInput {
				b.mirror()
			}
		}
		return lanes, tests
	}
	k := src.fill(b.rows, b.R, lim)
	if k > 0 {
		b.load(b.rows, k, needsInput)
	}
	return k, k
}

// load transposes k staged rows (1..maxLanes) into the out batch at
// ⌈k/64⌉ words per line — one 64×64 transpose per row word of each
// 64-lane group, scattered into the line-major layout — and mirrors it
// into in when the judge reads inputs. rows is left intact, so a
// failing lane's input is read back from it.
//
//sortnets:hotpath
func (b *block) load(rows []uint64, k int, needsInput bool) {
	n, R := b.out.N, b.R
	W := (k + network.LanesPerWord - 1) / network.LanesPerWord
	lines := b.out.Lines[:n*W]
	t := &b.t
	for g := 0; g < W; g++ {
		group := rows[g*network.LanesPerWord*R:]
		lanes := min(k-g*network.LanesPerWord, network.LanesPerWord)
		for r := 0; r < R; r++ {
			if R == 1 {
				copy(t[:lanes], group)
			} else {
				for j := range lanes {
					t[j] = group[j*R+r]
				}
			}
			clear(t[lanes:])
			transpose64(t)
			base := r * network.LanesPerWord
			for i, w := range t[:min(network.LanesPerWord, n-base)] {
				lines[(base+i)*W+g] = w
			}
		}
	}
	b.out.W, b.out.Lanes, b.out.Lines = W, k, lines
	b.lines = nil
	if needsInput {
		b.mirror()
	}
}

// mirror copies the loaded out batch into in.
//
//sortnets:hotpath
func (b *block) mirror() {
	b.in.W, b.in.Lanes = b.out.W, b.out.Lanes
	b.in.Lines = append(b.in.Lines[:0], b.out.Lines...)
}

// judge evaluates the loaded out batch through p and judges it (see
// reject).
//
//sortnets:hotpath
func (b *block) judge(p *Program, j *Judge) int {
	p.ApplyBatch(&b.out)
	return b.reject(&b.in, j)
}

// reject judges the evaluated out batch, with in as the judge's in
// batch, leaving the rejected-lane mask (masked to the occupied lanes
// and the stream's vectors) in b.bad[:W]. It returns the lowest
// rejected lane — the first failure in stream order — or -1.
//
//sortnets:hotpath
func (b *block) reject(in *network.Batch, j *Judge) int {
	bad := b.bad[:b.out.W]
	if j.sorted {
		b.out.UnsortedLanes(bad)
	} else {
		j.Rejects(in, &b.out, bad)
	}
	network.MaskLanes(bad, b.out.Lanes)
	if b.lines != nil {
		for g := range bad {
			bad[g] &^= b.holes[g]
		}
	}
	for g, w := range bad {
		if w != 0 {
			return g*network.LanesPerWord + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// outcome is a run's result at either width: a Verdict, whose
// counterexample is a bitvec at n ≤ 64, and the counterexample as
// wide vectors beyond 64 lines.
type outcome struct {
	Verdict
	wideIn, wideOut widevec.Vec
}

// failure is the outcome for a failing lane of the judged block
// loaded from rows, after tests earlier vectors: for a line-source
// block the lane's stream position is its index minus the holes below
// it and its input is the source's Lane; else its input is read back
// from its staged row (as a wide vector beyond 64 lines).
func (b *block) failure(rows []uint64, lane, tests int) outcome {
	n := b.out.N
	if b.lines != nil {
		g, s := lane/network.LanesPerWord, uint(lane%network.LanesPerWord)
		below := bits.OnesCount64(b.holes[g] & (1<<s - 1))
		for _, h := range b.holes[:g] {
			below += bits.OnesCount64(h)
		}
		return outcome{Verdict: Verdict{TestsRun: tests + lane - below + 1, In: b.lines.Lane(lane), Out: b.out.Lane(lane)}}
	}
	if n <= bitvec.MaxN {
		return outcome{Verdict: Verdict{TestsRun: tests + lane + 1, In: bitvec.Vec{N: n, Bits: rows[lane]}, Out: b.out.Lane(lane)}}
	}
	out := make([]uint64, b.R)
	g, s := lane/network.LanesPerWord, uint(lane%network.LanesPerWord)
	for i := 0; i < n; i++ {
		out[i/network.LanesPerWord] |= (b.out.Lines[i*b.out.W+g] >> s & 1) << uint(i%network.LanesPerWord)
	}
	return outcome{
		Verdict: Verdict{TestsRun: tests + lane + 1},
		wideIn:  widevec.FromWords(n, rows[lane*b.R:lane*b.R+b.R]),
		wideOut: widevec.FromWords(n, out),
	}
}

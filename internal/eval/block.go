package eval

import (
	"math/bits"
	"sync"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// block is a worker's reusable evaluation state: up to maxLanes
// stream vectors, the transpose scratch, the in/out batches and the
// rejected-lane mask. Every run path (Run's sequential loop and pool,
// Sweep, RunUniverse, RunMany) loads, evaluates and judges through
// it, so there is one block schedule and one first-failure rule.
type block struct {
	vecs    [maxLanes]bitvec.Vec
	words   [maxLanes]uint64
	in, out network.Batch
	bad     [maxWords]uint64
}

// blockPool recycles blocks: a block is ~6 KiB plus its batches, and
// a serve path running one short verify per request would otherwise
// make that garbage per request.
var blockPool sync.Pool

// getBlock checks a block out of the pool with batches for n lines,
// growing them when a previous user had fewer lines.
func getBlock(n int) *block {
	b, _ := blockPool.Get().(*block)
	if b == nil {
		b = new(block)
	}
	if cap(b.out.Lines) < n*maxWords {
		b.in.Lines = make([]uint64, 0, n*maxWords)
		b.out.Lines = make([]uint64, 0, n*maxWords)
	}
	b.in.N, b.out.N = n, n
	return b
}

// fill reads up to lim vectors from it into the block and returns how
// many it read.
func (b *block) fill(it bitvec.Iterator, lim int) int {
	k := 0
	for k < lim {
		v, ok := it.Next()
		if !ok {
			break
		}
		b.vecs[k] = v
		k++
	}
	return k
}

// load transposes src (1..maxLanes vectors) into the out batch at
// ⌈len(src)/64⌉ words per line — one 64×64 transpose per occupied
// word, scattered into the line-major layout — and mirrors it into in
// when the judge reads inputs.
//
//sortnets:hotpath
func (b *block) load(src []bitvec.Vec, needsInput bool) {
	k := len(src)
	W := (k + network.LanesPerWord - 1) / network.LanesPerWord
	words := b.words[:W*network.LanesPerWord]
	for i, v := range src {
		words[i] = v.Bits
	}
	clear(words[k:])
	for g := 0; g < W; g++ {
		transpose64((*[64]uint64)(words[g*network.LanesPerWord:]))
	}
	n := b.out.N
	lines := b.out.Lines[:n*W]
	if W == 1 {
		copy(lines, words[:n])
	} else {
		for i := 0; i < n; i++ {
			for g := 0; g < W; g++ {
				lines[i*W+g] = words[g*network.LanesPerWord+i]
			}
		}
	}
	b.out.W, b.out.Lanes, b.out.Lines = W, k, lines
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

// judge evaluates the loaded out batch through p and judges it,
// leaving the rejected-lane mask (masked to the occupied lanes) in
// b.bad[:W]. It returns the lowest rejected lane — the first failure
// in stream order — or -1.
//
//sortnets:hotpath
func (b *block) judge(p *Program, j *Judge) int {
	p.ApplyBatch(&b.out)
	bad := b.bad[:b.out.W]
	if j.sorted {
		b.out.UnsortedLanes(bad)
	} else {
		j.Rejects(&b.in, &b.out, bad)
	}
	network.MaskLanes(bad, b.out.Lanes)
	for g, w := range bad {
		if w != 0 {
			return g*network.LanesPerWord + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// verdict is the failing Verdict for lane of the judged block loaded
// from src, after tests earlier vectors.
func (b *block) verdict(src []bitvec.Vec, lane, tests int) Verdict {
	return Verdict{Holds: false, TestsRun: tests + lane + 1, In: src[lane], Out: b.out.Lane(lane)}
}

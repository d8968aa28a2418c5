package network

import (
	"fmt"
	"math/bits"

	"sortnets/internal/bitvec"
)

// Batch evaluates a comparator network on up to 64·W binary inputs
// simultaneously. The transposed layout gives every line W words and
// is line-major: line i owns Lines[i·W : (i+1)·W], and lane j lives in
// word j>>6 (bit j&63) of every line. In this layout a standard
// comparator [a,b] on 0/1 data is, word by word,
//
//	line a, line b = line a AND line b, line a OR line b
//
// because min(x,y) = x∧y and max(x,y) = x∨y on bits. Two machine
// instructions thus advance 64 test vectors through one comparator —
// the bit-parallel trick that lets the experiment harness sweep the
// full 2^n universe and the 2^n−n−1 test set at word speed. W = 1 is
// the single-word layout: Lines[i] bit j is line i in lane j.
type Batch struct {
	N     int      // lines
	W     int      // words per line
	Lanes int      // occupied lanes, 1..64·W
	Lines []uint64 // line i at [i*W, (i+1)*W)
}

// LanesPerWord is the number of lanes one word of a line carries.
const LanesPerWord = 64

// NewBatch returns an empty batch for n lines and w words per line
// (capacity 64·w lanes).
func NewBatch(n, w int) *Batch {
	if w < 1 {
		panic(fmt.Sprintf("network: %d words per line invalid", w))
	}
	return &Batch{N: n, W: w, Lines: make([]uint64, n*w)}
}

// LoadVecs fills a batch of ⌈len(vs)/64⌉ words per line (at least
// one) from vectors of length n.
func LoadVecs(n int, vs []bitvec.Vec) *Batch {
	b := NewBatch(n, max(1, (len(vs)+LanesPerWord-1)/LanesPerWord))
	for lane, v := range vs {
		b.SetLane(lane, v)
	}
	return b
}

// SetLane installs vector v in the given lane (transposing it into
// the per-line words).
func (b *Batch) SetLane(lane int, v bitvec.Vec) {
	if v.N != b.N {
		panic(fmt.Sprintf("network: lane vector length %d, want %d", v.N, b.N))
	}
	if lane < 0 || lane >= LanesPerWord*b.W {
		panic(fmt.Sprintf("network: lane %d out of range", lane))
	}
	word, mask := lane>>6, uint64(1)<<uint(lane&63)
	for i := 0; i < b.N; i++ {
		if v.Bit(i) == 1 {
			b.Lines[i*b.W+word] |= mask
		} else {
			b.Lines[i*b.W+word] &^= mask
		}
	}
	if lane >= b.Lanes {
		b.Lanes = lane + 1
	}
}

// Lane extracts the vector currently in the given lane.
func (b *Batch) Lane(lane int) bitvec.Vec {
	word, shift := lane>>6, uint(lane&63)
	var w uint64
	for i := 0; i < b.N; i++ {
		w |= (b.Lines[i*b.W+word] >> shift & 1) << uint(i)
	}
	return bitvec.New(b.N, w)
}

// ApplyBatch advances all lanes of the batch through the network in
// place: one AND and one OR per comparator and word. (The compiled
// engine in internal/eval has its own kernels; this is the reference
// form for the network type itself.)
func (w *Network) ApplyBatch(b *Batch) {
	if b.N != w.N {
		panic(fmt.Sprintf("network: batch has %d lines, want %d", b.N, w.N))
	}
	W := b.W
	lines := b.Lines
	for g := 0; g < W; g++ {
		for _, c := range w.Comps {
			ia, ib := c.A*W+g, c.B*W+g
			x, y := lines[ia], lines[ib]
			lines[ia] = x & y
			lines[ib] = x | y
		}
	}
}

// UnsortedLanes writes into viol[:W] the per-word bitmask of occupied
// lanes whose current contents are NOT sorted. After ApplyBatch this
// identifies, in one pass, every test vector the network failed. A
// lane is sorted when its per-line reading is 0^a 1^b, i.e. once a
// line carries 1 every later line does too; the scan tracks, per
// lane, whether a 1 has been seen (ones) and flags lanes where a 0
// follows.
func (b *Batch) UnsortedLanes(viol []uint64) {
	W := b.W
	for g := 0; g < W; g++ {
		var ones, v uint64
		for i := g; i < len(b.Lines); i += W {
			w := b.Lines[i]
			v |= ones &^ w // a lane that already saw 1 now sees 0
			ones |= w
		}
		viol[g] = v
	}
	MaskLanes(viol[:W], b.Lanes)
}

// MaskLanes clears every bit of the word-vector mask at or above the
// given lane count: the multi-word form of masking a uint64 to the
// occupied lanes.
func MaskLanes(mask []uint64, lanes int) {
	full, rem := lanes>>6, lanes&63
	if rem != 0 {
		mask[full] &= uint64(1)<<uint(rem) - 1
		full++
	}
	for g := full; g < len(mask); g++ {
		mask[g] = 0
	}
}

// laneMasks[i] is the bit pattern of input-bit i across inputs
// base..base+63 when base is a multiple of 64, for i < 6.
var laneMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA, // bit 0 alternates every input
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// LoadConsecutive fills the batch with the k binary inputs base,
// base+1, …, base+k−1 (base a multiple of 64) at ⌈k/64⌉ words per
// line, without per-lane transposition: lane j of word g holds input
// base+64g+j, whose line-i bit pattern across the word is one of six
// fixed masks (i < 6) or constant (i ≥ 6). Lines must have capacity
// for N·⌈k/64⌉ words.
//
//sortnets:hotpath
func (b *Batch) LoadConsecutive(base uint64, k int) {
	W := (k + LanesPerWord - 1) / LanesPerWord
	b.W, b.Lanes, b.Lines = W, k, b.Lines[:b.N*W]
	for i := 0; i < b.N; i++ {
		row := b.Lines[i*W : i*W+W]
		for g := range row {
			switch {
			case i < 6:
				row[g] = laneMasks[i]
			case (base+uint64(g)*LanesPerWord)>>uint(i)&1 == 1:
				row[g] = ^uint64(0)
			default:
				row[g] = 0
			}
		}
	}
}

// SortsAllBinary reports whether the network sorts every one of the 2^n
// binary inputs — the zero-one-principle criterion for being a sorter —
// by sweeping the universe 64 lanes at a time with wholesale lane
// loading (LoadConsecutive).
func (w *Network) SortsAllBinary() bool {
	return w.FirstBinaryFailure() == (bitvec.Vec{N: -1})
}

// FirstBinaryFailure returns the smallest (in word order) binary input
// the network fails to sort, or a sentinel Vec with N = -1 if the
// network sorts everything. The sentinel keeps the hot path free of
// (Vec, bool) tuple returns.
func (w *Network) FirstBinaryFailure() bitvec.Vec {
	fails := w.BinaryFailures(1)
	if len(fails) == 0 {
		return bitvec.Vec{N: -1}
	}
	return fails[0]
}

// BinaryFailures sweeps the whole binary universe and returns every
// input the network fails to sort, in increasing word order, stopping
// early once max failures are found (max ≤ 0 means unlimited). The
// failure set of an almost-sorter H_σ is exactly {σ}, the property
// Lemma 2.1 is built on; the verification engine uses this to
// characterize how far an arbitrary network is from any property.
func (w *Network) BinaryFailures(max int) []bitvec.Vec {
	n := w.N
	var fails []bitvec.Vec
	if n == 0 {
		return nil
	}
	total := uint64(bitvec.Universe(n))
	b := NewBatch(n, 1)
	var viol [1]uint64
	for base := uint64(0); base < total; base += LanesPerWord {
		b.LoadConsecutive(base, min(int(total-base), LanesPerWord))
		w.ApplyBatch(b)
		b.UnsortedLanes(viol[:])
		for v := viol[0]; v != 0; v &= v - 1 {
			fails = append(fails, bitvec.New(n, base+uint64(bits.TrailingZeros64(v))))
			if max > 0 && len(fails) >= max {
				return fails
			}
		}
	}
	return fails
}

package network

import (
	"fmt"

	"sortnets/internal/bitvec"
)

// Analysis utilities built on the zero-one principle: because a
// comparator network's behaviour on arbitrary inputs is determined by
// its behaviour on binary inputs (each output line is a lattice
// polynomial of the inputs), binary sweeps decide semantic questions —
// equivalence, redundancy, exercise counts — exactly.

// Equivalent reports whether two networks compute the same function,
// by comparing outputs on all 2ⁿ binary inputs with the 64-lane batch
// engine. Exact for arbitrary inputs, not just binary ones, by the
// threshold decomposition behind the zero-one principle.
func Equivalent(a, b *Network) bool {
	if a.N != b.N {
		return false
	}
	n := a.N
	if n == 0 {
		return true
	}
	total := uint64(bitvec.Universe(n))
	ba, bb := NewBatch(n, 1), NewBatch(n, 1)
	for base := uint64(0); base < total; base += LanesPerWord {
		k := min(int(total-base), LanesPerWord)
		ba.LoadConsecutive(base, k)
		bb.LoadConsecutive(base, k)
		a.ApplyBatch(ba)
		b.ApplyBatch(bb)
		for i := 0; i < n; i++ {
			mask := ^uint64(0)
			if k < LanesPerWord {
				mask = uint64(1)<<uint(k) - 1
			}
			if (ba.Lines[i]^bb.Lines[i])&mask != 0 {
				return false
			}
		}
	}
	return true
}

// ExerciseCounts returns, for every comparator, how many of the 2ⁿ
// binary inputs make it actually exchange its pair. A comparator with
// count zero never fires on any input (binary or otherwise) and is
// semantically dead.
func (w *Network) ExerciseCounts() []int {
	counts := make([]int, len(w.Comps))
	n := w.N
	if n == 0 {
		return counts
	}
	total := uint64(bitvec.Universe(n))
	b := NewBatch(n, 1)
	for base := uint64(0); base < total; base += LanesPerWord {
		k := min(int(total-base), LanesPerWord)
		b.LoadConsecutive(base, k)
		laneMask := ^uint64(0)
		if k < LanesPerWord {
			laneMask = uint64(1)<<uint(k) - 1
		}
		for i, c := range w.Comps {
			x, y := b.Lines[c.A], b.Lines[c.B]
			// A lane exchanges exactly when line A carries 1 and line
			// B carries 0.
			counts[i] += popcount64(x &^ y & laneMask)
			b.Lines[c.A] = x & y
			b.Lines[c.B] = x | y
		}
	}
	return counts
}

func popcount64(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// RemoveRedundant returns an equivalent network with every dead
// comparator deleted, iterating until none remain (removing one dead
// comparator can reveal another... it cannot, in fact: a comparator
// that never fires has no effect on downstream values, so all dead
// comparators can go in one pass — but the fixpoint loop guards the
// claim cheaply and the tests verify equivalence regardless).
func (w *Network) RemoveRedundant() *Network {
	cur := w.Clone()
	for {
		counts := cur.ExerciseCounts()
		next := New(cur.N)
		removed := false
		for i, c := range cur.Comps {
			if counts[i] == 0 {
				removed = true
				continue
			}
			next.AddPair(c.A, c.B)
		}
		if !removed {
			return cur
		}
		cur = next
	}
}

// Compact returns an equivalent network with comparators reordered
// into their greedy parallel layers: comparators on disjoint lines
// commute, so emitting layer by layer preserves behaviour while
// making the parallel structure explicit (diagrams tighten, and a
// hardware realization reads off its stages directly). Depth is
// unchanged — the greedy layering is already what Depth measures.
func (w *Network) Compact() *Network {
	out := New(w.N)
	for _, layer := range w.Layers() {
		for _, c := range layer {
			out.AddPair(c.A, c.B)
		}
	}
	return out
}

// Stats summarizes a network's structure.
type Stats struct {
	Lines       int
	Comparators int
	Depth       int
	Height      int
	Redundant   int // comparators that never fire
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%d lines, %d comparators (%d redundant), depth %d, height %d",
		s.Lines, s.Comparators, s.Redundant, s.Depth, s.Height)
}

// Analyze computes structural statistics; the redundancy count uses a
// full binary sweep, so it is exact but exponential in n.
func (w *Network) Analyze() Stats {
	red := 0
	for _, c := range w.ExerciseCounts() {
		if c == 0 {
			red++
		}
	}
	return Stats{
		Lines:       w.N,
		Comparators: w.Size(),
		Depth:       w.Depth(),
		Height:      w.Height(),
		Redundant:   red,
	}
}

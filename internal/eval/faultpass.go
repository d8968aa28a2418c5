package eval

import (
	"context"
	"fmt"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// The fault pass. Every faulty circuit of the fault models is the
// healthy circuit with a few edits, and it matches the healthy circuit
// up to its first edit. So instead of one whole program per fault,
// the pass runs the healthy comparators once per block, keeping the
// line state before each one, and simulates each fault as a
// difference from that run: restore the state at its first edit,
// apply its edits, and run the healthy comparators between and after
// them with the pure kernels. Memory is linear in the comparators, and
// a fault at comparator i runs only the comparators from i on.

// Edit is one change a fault makes to a healthy circuit's firing order
// (the order of network.Network.Comps). A comparator-shaped op (OpCmp,
// OpNop, OpSwap, OpRevCmp) replaces comparator At. A clamp or short
// runs just before comparator At, or after the last comparator when At
// is the comparator count. A fault's edits are in firing order: At
// never decreases, and an edit after a replacement lies past it.
type Edit struct {
	At int32
	Op Op
}

// replaces reports whether e replaces comparator At rather than
// running before it.
func (e Edit) replaces() bool { return e.Op.Kind <= OpRevCmp }

// checkEdits validates one fault's edits against n lines and comps
// comparators.
func checkEdits(n, comps int, edits []Edit) error {
	next := 0 // the first comparator the next edit may sit at
	for _, e := range edits {
		if err := checkOp(n, e.Op); err != nil {
			return err
		}
		at, last := int(e.At), comps
		if e.replaces() {
			last--
		}
		if at < next || at > last {
			return fmt.Errorf("eval: edit %v at comparator %d out of order or range (next %d, %d comparators)", e.Op, at, next, comps)
		}
		next = at
		if e.replaces() {
			next++
		}
	}
	return nil
}

// FaultSet is a healthy circuit and the edits of a list of faults on
// it: fault i's edits are edits[ends[i-1]:ends[i]], with ends[-1] = 0.
// A fault with no edits is the healthy circuit. It is immutable, so
// one set serves concurrent passes.
type FaultSet struct {
	n     int
	comps []network.Comparator // the healthy circuit in firing order
	edits []Edit
	ends  []int
}

// NewFaultSet builds the fault set of w and the faults whose edits
// edits and ends list (see FaultSet). It keeps edits, ends and w's
// comparators, so the caller must not modify them while the set is in
// use, and it panics on an edit that is out of order or on lines
// outside w.
func NewFaultSet(w *network.Network, edits []Edit, ends []int) *FaultSet {
	start := 0
	for _, end := range ends {
		if err := checkEdits(w.N, len(w.Comps), edits[start:end]); err != nil {
			panic(err.Error())
		}
		start = end
	}
	return &FaultSet{n: w.N, comps: w.Comps[:len(w.Comps):len(w.Comps)], edits: edits, ends: ends}
}

// EditProgram builds one fault as a whole program: w's comparators in
// firing order with edits applied (see Edit). It is the scalar and
// whole-batch form of a fault of a FaultSet; it panics like
// NewFaultSet.
func EditProgram(w *network.Network, edits []Edit) *Program {
	if err := checkEdits(w.N, len(w.Comps), edits); err != nil {
		panic(err.Error())
	}
	ops := make([]Op, 0, len(w.Comps)+len(edits))
	at := 0
	for _, e := range edits {
		for ; at < int(e.At); at++ {
			ops = append(ops, Op{Kind: OpCmp, A: uint16(w.Comps[at].A), B: uint16(w.Comps[at].B)})
		}
		ops = append(ops, e.Op)
		if e.replaces() {
			at++
		}
	}
	for _, c := range w.Comps[at:] {
		ops = append(ops, Op{Kind: OpCmp, A: uint16(c.A), B: uint16(c.B)})
	}
	return NewProgram(w.N, ops)
}

// N returns the line count.
func (s *FaultSet) N() int { return s.n }

// RunCtx is the fault pass. It streams it once, in blocks of up to
// 256 lanes, through the healthy circuit and every fault listed in
// faults (indices into the set); faults is read once, before the
// first block. judge sees a fault's outputs as out and the healthy
// circuit's outputs as in: a golden reference, not the block's inputs.
// For each fault the judge rejects on some lane of a block, visit gets
// the fault's index, the number of stream vectors before the block and
// the block's rejected-lane words (bit j of word g for lane 64g+j;
// lanes that are not stream vectors are never rejected), valid only
// during the call. When visit returns true the fault leaves the pass,
// which ends when the stream does or no fault is left. A stream that
// is not a line source fills every block but its last with 256
// vectors, so lane j of a block is stream vector tests+j. The context
// is checked once per block; on cancellation RunCtx returns ctx.Err().
//
//sortnets:ctxloop
func (s *FaultSet) RunCtx(ctx context.Context, faults []int, it bitvec.Iterator, judge Judge, visit func(f, tests int, bad []uint64) bool) error {
	if s.n > bitvec.MaxN {
		panic(fmt.Sprintf("eval: the fault pass streams bitvec vectors of at most 64 lines, the circuit has %d", s.n))
	}
	b := getBlock(s.n)
	defer blockPool.Put(b)
	b.active = append(b.active[:0], faults...)
	src := vecStream(it)
	C := len(s.comps)
	tests := 0
	for len(b.active) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		k, m := b.step(&src, maxLanes, false)
		if k == 0 {
			break
		}
		W := b.out.W
		S := s.n * W // words per line state
		saved := b.checkpoint(s.comps)
		b.healthy = network.Batch{N: s.n, W: W, Lanes: b.out.Lanes, Lines: saved[C*S : (C+1)*S]}
		keep := b.active[:0]
		for _, f := range b.active {
			s.apply(f, saved, b.out.Lines, W)
			if b.reject(&b.healthy, &judge) >= 0 && visit(f, tests, b.bad[:W]) {
				continue
			}
			keep = append(keep, f)
		}
		b.active = keep
		tests += m
	}
	return nil
}

// apply evaluates fault f into lines (W words per line) from the
// healthy run's saved line states.
//
//sortnets:hotpath
func (s *FaultSet) apply(f int, saved, lines []uint64, W int) {
	start := 0
	if f > 0 {
		start = s.ends[f-1]
	}
	edits := s.edits[start:s.ends[f]]
	at := len(s.comps) // no edits: the healthy outputs
	if len(edits) > 0 {
		at = int(edits[0].At)
	}
	S := len(lines)
	copy(lines, saved[at*S:(at+1)*S])
	for _, e := range edits {
		applyComps(s.comps[at:e.At], lines, W)
		applyOp(e.Op, lines, W)
		at = int(e.At)
		if e.replaces() {
			at++
		}
	}
	applyComps(s.comps[at:], lines, W)
}

// checkpoint runs the healthy comparators over the loaded out batch,
// which it leaves unchanged, and returns the line states it passed
// through: the state before comparator i at [i·S, (i+1)·S), S = n·W,
// and the outputs at i = len(comps). The states live in the block, so
// a pooled block keeps its slab for the next pass.
//
//sortnets:hotpath
func (b *block) checkpoint(comps []network.Comparator) []uint64 {
	W, S := b.out.W, len(b.out.Lines)
	need := (len(comps) + 1) * S
	if cap(b.saved) < need {
		// Sized for full blocks, so a ragged tail never regrows it.
		b.saved = make([]uint64, (len(comps)+1)*b.out.N*maxWords)
	}
	saved := b.saved[:need]
	copy(saved, b.out.Lines)
	for i, c := range comps {
		next := saved[(i+1)*S : (i+2)*S]
		copy(next, saved[i*S:(i+1)*S])
		la, lb := next[c.A*W:c.A*W+W], next[c.B*W:c.B*W+W]
		for g := range la {
			x, y := la[g], lb[g]
			la[g], lb[g] = x&y, x|y
		}
	}
	return saved
}

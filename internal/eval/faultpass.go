package eval

import (
	"context"
	"fmt"
	"sync/atomic"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// The fault pass. Every faulty circuit of the fault models is the
// healthy circuit with a few edits, and it matches the healthy circuit
// up to its first edit. So instead of one whole program per fault,
// the pass runs the healthy comparators once per block, keeping the
// line state before each one, and simulates each fault as a
// difference from that run: restore the state at its first edit,
// apply its edits, and run the healthy comparators between them with
// the pure kernels. After its last edit, when enough comparators are
// left, it carries only the lines on which it differs from the healthy
// state, runs only the comparators that touch one of them, and leaves
// the fault where no line differs: it has rejoined the healthy run
// (concurrent fault simulation). Memory is linear in the comparators,
// and on long circuits a fault costs the comparators its difference
// reaches, not every comparator after its first edit.

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
// A fault with no edits is the healthy circuit. Its circuit and faults
// are immutable, so one set serves concurrent passes.
type FaultSet struct {
	n       int
	comps   []network.Comparator // the healthy circuit in firing order
	edits   []Edit
	ends    []int
	applied atomic.Int64 // comparators applied by the passes so far
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

// Applied returns the comparators the set's passes have applied so
// far, summed over their blocks: each block's healthy run, and each
// fault's comparators that touch a line it differs on.
func (s *FaultSet) Applied() int64 { return s.applied.Load() }

// RunCtx is the fault pass. It streams it once, in blocks of up to
// 256 lanes, through the healthy circuit and every fault listed in
// faults (indices into the set); faults is read once, before the
// first block. judge sees a fault's outputs as out and the healthy
// circuit's outputs as in: a golden reference, not the block's inputs.
// A fault that rejoins the healthy run has the healthy outputs, so
// the judge sees them once per block for all such faults. For each
// fault the judge rejects on some lane of a block, visit gets the
// fault's index, the number of stream vectors before the block and
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
	tests, applied := 0, 0
	defer func() { s.applied.Add(int64(applied)) }()
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
		applied += C
		b.healthy = network.Batch{N: s.n, W: W, Lanes: b.out.Lanes, Lines: saved[C*S : (C+1)*S]}
		// The healthy outputs' verdict, judged when a fault first
		// rejoins: its lowest rejected lane (-1 for none) and words.
		healthyJudged, healthyFirst := false, -1
		var healthyBad [maxWords]uint64
		keep := b.active[:0]
		for _, f := range b.active {
			rejoined, ran := s.apply(f, saved, b.out.Lines, W)
			applied += ran
			var first int
			switch {
			case !rejoined:
				first = b.reject(&b.healthy, &judge)
			case !healthyJudged:
				copy(b.out.Lines, b.healthy.Lines)
				healthyJudged, healthyFirst = true, b.reject(&b.healthy, &judge)
				first, healthyBad = healthyFirst, b.bad
			default:
				first, b.bad = healthyFirst, healthyBad
			}
			if first >= 0 && visit(f, tests, b.bad[:W]) {
				continue
			}
			keep = append(keep, f)
		}
		b.active = keep
		tests += m
	}
	return nil
}

// rejoinTailPerLine sets, per line of the circuit, the fewest
// comparators after a fault's last edit for which the pass carries
// the lines it differs on (see apply). Below 16n, carrying and
// comparing them cost more than the comparators a rejoin skips, so the
// fault runs to the end with the pure kernels. Measured at one core on
// random networks: carrying every fault's lines ran 1.3–2.0x slower
// than the pure kernels at 48–128 comparators on 8 lines and 48–256 on
// 12; with the 16n tail no size ran slower, and at 768 comparators the
// pass ran 2–3x faster.
const rejoinTailPerLine = 16

// apply evaluates fault f from the healthy run's saved line states,
// S = len(lines) words each, and reports whether it rejoins the
// healthy run: whether after its last edit no line differs from the
// healthy state. If it does not, apply leaves its outputs in lines (W
// words per line). Up to its last edit the fault runs as a whole line
// state with the pure kernels. After it, when at least 16n comparators
// are left (rejoinTailPerLine), the fault carries the lines it differs
// on as a mask (n ≤ 64) and advances only through comparators touching
// one of them, until the mask empties or the circuit ends. It also
// returns the comparators it ran.
//
//sortnets:hotpath
func (s *FaultSet) apply(f int, saved, lines []uint64, W int) (rejoined bool, ran int) {
	start := 0
	if f > 0 {
		start = s.ends[f-1]
	}
	edits := s.edits[start:s.ends[f]]
	if len(edits) == 0 {
		return true, 0
	}
	S, C := len(lines), len(s.comps)
	at := int(edits[0].At)
	copy(lines, saved[at*S:(at+1)*S])
	for _, e := range edits {
		applyComps(s.comps[at:e.At], lines, W)
		ran += int(e.At) - at
		applyOp(e.Op, lines, W)
		at = int(e.At)
		if e.replaces() {
			at++
		}
	}
	if C-at < rejoinTailPerLine*s.n {
		applyComps(s.comps[at:], lines, W)
		return false, ran + C - at
	}
	var diff uint64 // the lines differing from the healthy state before comparator at
	cur := saved[at*S : (at+1)*S]
	for l := range s.n {
		var d uint64
		for g := l * W; g < l*W+W; g++ {
			d |= lines[g] ^ cur[g]
		}
		diff |= differs(d) << uint(l)
	}
	diff, carried := s.advance(at, diff, saved, lines, W)
	if ran += carried; diff == 0 {
		return true, ran
	}
	out := saved[C*S : (C+1)*S]
	for l := range s.n {
		if diff>>uint(l)&1 == 0 {
			copy(lines[l*W:l*W+W], out[l*W:l*W+W])
		}
	}
	return false, ran
}

// advance runs the comparators from from on of a fault that differs
// from the healthy state before comparator from on the lines of diff,
// and returns the lines its outputs differ on, 0 once it rejoins, and
// the comparators it ran. Only comparators touching a differing line
// run, reading the other line from the saved healthy state, and each
// compares the words it writes with the healthy state after it, so the
// mask stays exact. Full blocks take an unrolled four-word step.
//
//sortnets:hotpath
func (s *FaultSet) advance(from int, diff uint64, saved, lines []uint64, W int) (uint64, int) {
	S, ran := len(lines), 0
	next := from * S // the healthy state after the comparator
	for _, c := range s.comps[from:] {
		if diff == 0 {
			break
		}
		cur := next
		next += S
		bitA, bitB := uint64(1)<<uint(c.A), uint64(1)<<uint(c.B)
		if diff&(bitA|bitB) == 0 {
			continue
		}
		ran++
		a, b := c.A*W, c.B*W
		srcA, offA, srcB, offB := lines, a, lines, b
		if diff&bitA == 0 {
			srcA, offA = saved, cur+a
		}
		if diff&bitB == 0 {
			srcB, offB = saved, cur+b
		}
		var da, db uint64
		if W == maxWords {
			xa, xb := (*[maxWords]uint64)(srcA[offA:]), (*[maxWords]uint64)(srcB[offB:])
			lo0, hi0 := xa[0]&xb[0], xa[0]|xb[0]
			lo1, hi1 := xa[1]&xb[1], xa[1]|xb[1]
			lo2, hi2 := xa[2]&xb[2], xa[2]|xb[2]
			lo3, hi3 := xa[3]&xb[3], xa[3]|xb[3]
			ha, hb := (*[maxWords]uint64)(saved[next+a:]), (*[maxWords]uint64)(saved[next+b:])
			da = (lo0 ^ ha[0]) | (lo1 ^ ha[1]) | (lo2 ^ ha[2]) | (lo3 ^ ha[3])
			db = (hi0 ^ hb[0]) | (hi1 ^ hb[1]) | (hi2 ^ hb[2]) | (hi3 ^ hb[3])
			la, lb := (*[maxWords]uint64)(lines[a:]), (*[maxWords]uint64)(lines[b:])
			la[0], la[1], la[2], la[3] = lo0, lo1, lo2, lo3
			lb[0], lb[1], lb[2], lb[3] = hi0, hi1, hi2, hi3
		} else {
			xa, xb := srcA[offA:offA+W], srcB[offB:offB+W]
			ha, hb := saved[next+a:next+a+W], saved[next+b:next+b+W]
			la, lb := lines[a:a+W], lines[b:b+W]
			for g := range la {
				x, y := xa[g], xb[g]
				lo, hi := x&y, x|y
				la[g], lb[g] = lo, hi
				da |= lo ^ ha[g]
				db |= hi ^ hb[g]
			}
		}
		diff = diff&^(bitA|bitB) | differs(da)<<uint(c.A) | differs(db)<<uint(c.B)
	}
	return diff, ran
}

// differs is 1 when the word difference d is nonzero, else 0.
func differs(d uint64) uint64 { return (d | -d) >> 63 }

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

// Package eval is the compiled evaluation engine behind every
// verification path in the repository. A *network.Network is compiled
// ONCE into an immutable Program — comparator pairs pre-extracted and
// topologically packed into data-independent layers — and an Engine
// streams test vectors through it in word-parallel blocks of up to 256
// lanes, each carrying only the words its vectors fill, at any width.
// A span of the universe (bitvec.All, or the sorter test set NotSorted
// of it) loads wholesale: consecutive words are constant line words,
// and a hole mask drops the words the stream skips. Any other stream
// stages each vector of n lines as a row of ⌈n/64⌉ words (a row
// source, such as the selector and merger test sets, writes a block
// of rows per call), loaded by one 64×64 transpose per row word. The
// engine owns the worker pool (sequential under a work threshold,
// GOMAXPROCS workers above it).
//
// Fault simulation is the fault pass (FaultSet.RunCtx). A fault of
// package faults is a few edits to the healthy circuit's firing order
// (a bypassed comparator is replaced by a no-op, a stuck line adds
// clamp ops, a bridge short ops). The pass runs the healthy circuit
// once per block, keeping the line state before each comparator, and
// simulates each fault from the state at its first edit with the
// same word-parallel kernels. Programs are op sequences rather than
// comparator sequences so that one fault can also be built as a
// whole program (EditProgram) for the scalar path.
package eval

import (
	"fmt"
	"slices"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// OpKind is the opcode of one compiled program step.
type OpKind uint8

// Program opcodes. OpCmp is the only opcode a healthy network
// compiles to; the rest are the fault models' edits (see Edit). The
// comparator-shaped opcodes come first, through OpRevCmp: an edit
// with one of them replaces a comparator.
const (
	OpCmp      OpKind = iota // standard compare-exchange: min on A, max on B
	OpNop                    // bypassed comparator: values pass through
	OpSwap                   // unconditional exchange of lines A and B
	OpRevCmp                 // reversed comparator: max on A, min on B
	OpClamp0                 // clamp line A to 0
	OpClamp1                 // clamp line A to 1
	OpShortOR                // lines A and B both read their wired-OR
	OpShortAND               // lines A and B both read their wired-AND
)

// Op is one program step on lines A (and, for two-line ops, B). It
// is 6 bytes.
type Op struct {
	Kind OpKind
	A, B uint16
}

// maxProgramLines is the widest program: an Op addresses lines
// 0..65534.
const maxProgramLines = 65535

// Program is the immutable compiled form of a comparator network (or
// of a fault-injected variant of one). Compile once, evaluate many
// times: the pair slice and the layer schedule are extracted at
// compile time instead of on every call.
type Program struct {
	n     int
	ops   []Op
	pure  bool // every op is OpCmp (compiled from a healthy network)
	comps []network.Comparator
	// comps is the pure program's schedule in layer order, the form
	// the hot scalar/batch loops range over (ranging a []Comparator
	// compiles measurably tighter than a [][2]int).
	levels []int // pure programs: layer boundaries into ops/comps
}

// Compile builds the compiled form of a healthy network: comparators
// are packed into their greedy data-independent layers (the depth
// schedule of network.Depth/Layers) and emitted layer by layer.
// Comparators on disjoint lines commute, so the reordering preserves
// behaviour exactly while freeing the CPU to overlap the ops of a
// layer. The program does not alias the network: later mutation of w
// leaves the program untouched.
func Compile(w *network.Network) *Program {
	if w.N > maxProgramLines {
		panic(fmt.Sprintf("eval: network has %d lines, a program at most %d", w.N, maxProgramLines))
	}
	busy := make([]int, w.N)
	depth := 0
	layerOf := make([]int, len(w.Comps))
	counts := []int{}
	for i, c := range w.Comps {
		layer := busy[c.A]
		if busy[c.B] > layer {
			layer = busy[c.B]
		}
		layer++
		busy[c.A], busy[c.B] = layer, layer
		layerOf[i] = layer - 1
		for len(counts) < layer {
			counts = append(counts, 0)
		}
		counts[layer-1]++
		if layer > depth {
			depth = layer
		}
	}
	levels := make([]int, depth+1)
	for l := 0; l < depth; l++ {
		levels[l+1] = levels[l] + counts[l]
	}
	ops := make([]Op, len(w.Comps))
	comps := make([]network.Comparator, len(w.Comps))
	fill := append([]int(nil), levels[:depth]...)
	for i, c := range w.Comps {
		at := fill[layerOf[i]]
		fill[layerOf[i]]++
		ops[at] = Op{Kind: OpCmp, A: uint16(c.A), B: uint16(c.B)}
		comps[at] = c
	}
	return &Program{n: w.N, ops: ops, pure: true, comps: comps, levels: levels}
}

// NewProgram builds a program from an explicit op sequence. Ops are
// executed in the given order — no layer reordering, because clamp
// and short ops do not commute the way standard comparators do. The
// op slice is copied.
func NewProgram(n int, ops []Op) *Program {
	p := &Program{n: n, ops: slices.Clone(ops), pure: true}
	for _, op := range p.ops {
		if err := checkOp(n, op); err != nil {
			panic(err.Error())
		}
		if op.Kind != OpCmp {
			p.pure = false
		}
	}
	if p.pure {
		p.comps = make([]network.Comparator, len(p.ops))
		for j, op := range p.ops {
			p.comps[j] = network.Comparator{A: int(op.A), B: int(op.B)}
		}
	}
	return p
}

func checkOp(n int, op Op) error {
	if n > maxProgramLines {
		return fmt.Errorf("eval: %d lines, a program has at most %d", n, maxProgramLines)
	}
	a, b := int(op.A), int(op.B)
	switch op.Kind {
	case OpClamp0, OpClamp1:
		if a >= n {
			return fmt.Errorf("eval: clamp line %d out of range 0..%d", a, n-1)
		}
	case OpCmp, OpNop, OpSwap, OpRevCmp:
		if !(a < b && b < n) {
			return fmt.Errorf("eval: op on lines [%d,%d] invalid for %d lines", a, b, n)
		}
	case OpShortOR, OpShortAND:
		if a == b || a >= n || b >= n {
			return fmt.Errorf("eval: short on lines [%d,%d] invalid for %d lines", a, b, n)
		}
	default:
		return fmt.Errorf("eval: unknown opcode %d", op.Kind)
	}
	return nil
}

// N returns the line count.
func (p *Program) N() int { return p.n }

// Size returns the number of program steps.
func (p *Program) Size() int { return len(p.ops) }

// Pure reports whether every step is a standard compare-exchange —
// i.e. the program is a healthy comparator network, for which the
// layered schedule is valid.
func (p *Program) Pure() bool { return p.pure }

// Depth returns the number of data-independent layers of a pure
// compiled program (0 for impure programs, whose ops are sequential).
func (p *Program) Depth() int {
	if p.levels == nil {
		return 0
	}
	return len(p.levels) - 1
}

// Apply runs the program on a single packed binary input.
func (p *Program) Apply(v bitvec.Vec) bitvec.Vec {
	if v.N != p.n {
		panic(fmt.Sprintf("eval: input has %d lines, program wants %d", v.N, p.n))
	}
	bits := v.Bits
	if p.pure {
		for _, c := range p.comps {
			m := (bits >> uint(c.A)) &^ (bits >> uint(c.B)) & 1
			bits ^= m<<uint(c.A) | m<<uint(c.B)
		}
		return bitvec.Vec{N: v.N, Bits: bits}
	}
	for _, op := range p.ops {
		switch op.Kind {
		case OpCmp:
			m := (bits >> uint(op.A)) &^ (bits >> uint(op.B)) & 1
			bits ^= m<<uint(op.A) | m<<uint(op.B)
		case OpNop:
		case OpSwap:
			m := ((bits >> uint(op.A)) ^ (bits >> uint(op.B))) & 1
			bits ^= m<<uint(op.A) | m<<uint(op.B)
		case OpRevCmp:
			// max on A, min on B: exchange when A=0, B=1.
			m := (bits >> uint(op.B)) &^ (bits >> uint(op.A)) & 1
			bits ^= m<<uint(op.A) | m<<uint(op.B)
		case OpClamp0:
			bits &^= 1 << uint(op.A)
		case OpClamp1:
			bits |= 1 << uint(op.A)
		case OpShortOR:
			s := (bits>>uint(op.A) | bits>>uint(op.B)) & 1
			bits = bits&^(1<<uint(op.A)|1<<uint(op.B)) | s<<uint(op.A) | s<<uint(op.B)
		case OpShortAND:
			s := (bits >> uint(op.A)) & (bits >> uint(op.B)) & 1
			bits = bits&^(1<<uint(op.A)|1<<uint(op.B)) | s<<uint(op.A) | s<<uint(op.B)
		}
	}
	return bitvec.Vec{N: v.N, Bits: bits}
}

// ApplyInts runs the program on an integer vector in place (the
// permutation input model). Only comparator-shaped ops are meaningful
// on integers; clamp and short ops (binary fault models) panic.
func (p *Program) ApplyInts(v []int) {
	if len(v) != p.n {
		panic(fmt.Sprintf("eval: input length %d, program wants %d lines", len(v), p.n))
	}
	for _, op := range p.ops {
		switch op.Kind {
		case OpCmp:
			if v[op.A] > v[op.B] {
				v[op.A], v[op.B] = v[op.B], v[op.A]
			}
		case OpNop:
		case OpSwap:
			v[op.A], v[op.B] = v[op.B], v[op.A]
		case OpRevCmp:
			if v[op.A] < v[op.B] {
				v[op.A], v[op.B] = v[op.B], v[op.A]
			}
		default:
			panic("eval: clamp/short ops are binary-only")
		}
	}
}

// SortsAll reports whether a pure program sorts every one of the 2ⁿ
// binary inputs, sweeping the universe in word-parallel blocks of up
// to 256 lanes (n ≤ 30 or so in practice).
func (p *Program) SortsAll() bool {
	e := New(p, 1)
	return e.RunUniverse(SortedJudge()).Holds
}

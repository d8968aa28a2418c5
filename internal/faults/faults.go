// Package faults simulates hardware failures in comparator networks —
// the VLSI-testing application the paper cites as motivation ("we
// believe that our study will also be useful in testing VLSI circuits
// for possible hardware failures").
//
// The fault models:
//
//   - Bypass: a comparator never exchanges (open defect); the faulty
//     circuit is still a standard network, so the paper's test-set
//     guarantee applies: if the fault breaks sorting at all, the
//     minimal test set catches it.
//   - AlwaysSwap: a comparator exchanges unconditionally.
//   - Reverse: a comparator wired upside-down (max on top) — exactly
//     the "nonstandard" element the paper's model excludes, here
//     modelled as a defect.
//   - StuckLine: a line clamped to 0 or 1 throughout the circuit.
//   - Bridge: two adjacent lines shorted, wired-OR or wired-AND.
//
// Only Bypass keeps the circuit inside the standard-network model;
// the others create behaviours no comparator network exhibits, which
// is what makes measured fault coverage (experiment E12) informative
// rather than trivially 100%.
//
// Faulty circuits are not evaluated by a per-fault interpreter loop:
// each fault COMPILES, via AppendOps, to an eval.Program variant of
// the healthy circuit (a bypassed comparator is a no-op, a stuck line
// a clamp op, a bridge a short op), so fault simulation inherits the
// word-parallel block engine for free. A whole fault list compiles
// into one op arena, and Measure, DetectionMatrix and MeasureMasking
// judge every variant against a single load of each test block —
// one multi-program pass per chunk of the list, not one engine pass
// per fault.
package faults

import (
	"fmt"

	"sortnets/internal/bitvec"
	"sortnets/internal/eval"
	"sortnets/internal/network"
)

// Fault is a hardware defect that can be superimposed on a network
// during evaluation.
type Fault interface {
	// Describe renders a short human-readable label.
	Describe() string
	// AppendOps compiles the faulty circuit to an eval op sequence,
	// appended to dst.
	AppendOps(dst []eval.Op, w *network.Network) []eval.Op
	// Eval runs the faulty circuit on a binary input. It compiles on
	// the fly; hot paths should compile once via faults.Compile.
	Eval(w *network.Network, v bitvec.Vec) bitvec.Vec
}

// Compile builds the compiled program of the faulty circuit. The
// program evaluates on all of eval's paths — scalar and block —
// exactly like a healthy network's program.
func Compile(w *network.Network, f Fault) *eval.Program {
	return compileAll(w, []Fault{f})[0]
}

// compileAll compiles every fault of fs into one op arena and returns
// the programs over its ranges, indexed like fs. A first pass through
// a scratch buffer sizes the arena exactly, so it is allocated once:
// stuck lines and bridges add ops after every comparator touching
// their lines.
func compileAll(w *network.Network, fs []Fault) []*eval.Program {
	size, scratch := 0, make([]eval.Op, 0, 2*len(w.Comps)+1)
	for _, f := range fs {
		scratch = f.AppendOps(scratch[:0], w)
		size += len(scratch)
	}
	arena := make([]eval.Op, 0, size)
	ends := make([]int, len(fs))
	for i, f := range fs {
		arena = f.AppendOps(arena, w)
		ends[i] = len(arena)
	}
	return eval.NewPrograms(w.N, arena, ends)
}

// CompMode selects how a comparator misbehaves.
type CompMode int

// Comparator fault modes.
const (
	Bypass     CompMode = iota // comparator missing: values pass through
	AlwaysSwap                 // comparator exchanges unconditionally
	Reverse                    // comparator wired upside-down: max on top
)

func (m CompMode) String() string {
	switch m {
	case Bypass:
		return "bypass"
	case AlwaysSwap:
		return "always-swap"
	case Reverse:
		return "reverse"
	}
	return fmt.Sprintf("CompMode(%d)", int(m))
}

// opFor lowers one comparator fault mode to its opcode.
func opFor(m CompMode) eval.OpKind {
	switch m {
	case Bypass:
		return eval.OpNop
	case AlwaysSwap:
		return eval.OpSwap
	case Reverse:
		return eval.OpRevCmp
	}
	panic(fmt.Sprintf("faults: unknown comparator mode %d", int(m)))
}

// CompFault is a single faulty comparator, identified by its index in
// the network's firing order.
type CompFault struct {
	Index int
	Mode  CompMode
}

// Describe implements Fault.
func (f CompFault) Describe() string {
	return fmt.Sprintf("comparator %d %s", f.Index, f.Mode)
}

// AppendOps implements Fault: comparator Index fires in its fault
// mode, the rest are standard.
func (f CompFault) AppendOps(dst []eval.Op, w *network.Network) []eval.Op {
	for i, c := range w.Comps {
		kind := eval.OpCmp
		if i == f.Index {
			kind = opFor(f.Mode)
		}
		dst = append(dst, eval.Op{Kind: kind, A: c.A, B: c.B})
	}
	return dst
}

// Eval implements Fault.
func (f CompFault) Eval(w *network.Network, v bitvec.Vec) bitvec.Vec {
	return Compile(w, f).Apply(v)
}

// StuckLine clamps a line to a constant value for the whole circuit.
type StuckLine struct {
	Line  int
	Value int // 0 or 1
}

// Describe implements Fault.
func (f StuckLine) Describe() string {
	return fmt.Sprintf("line %d stuck-at-%d", f.Line+1, f.Value)
}

// AppendOps implements Fault: the clamp is enforced at the input and
// after every comparator touching the line (a defective wire segment
// along the entire line).
func (f StuckLine) AppendOps(dst []eval.Op, w *network.Network) []eval.Op {
	clamp := eval.Op{Kind: eval.OpClamp0, A: f.Line}
	if f.Value == 1 {
		clamp.Kind = eval.OpClamp1
	}
	dst = append(dst, clamp)
	for _, c := range w.Comps {
		dst = append(dst, eval.Op{Kind: eval.OpCmp, A: c.A, B: c.B})
		if c.A == f.Line || c.B == f.Line {
			dst = append(dst, clamp)
		}
	}
	return dst
}

// Eval implements Fault.
func (f StuckLine) Eval(w *network.Network, v bitvec.Vec) bitvec.Vec {
	return Compile(w, f).Apply(v)
}

// BridgeMode selects the logic function of shorted lines.
type BridgeMode int

// Bridge fault modes: shorted lines both read as the OR (wired-OR) or
// the AND (wired-AND) of the two signals.
const (
	WiredOR BridgeMode = iota
	WiredAND
)

func (m BridgeMode) String() string {
	if m == WiredOR {
		return "wired-OR"
	}
	return "wired-AND"
}

// Bridge shorts two lines together for the whole circuit.
type Bridge struct {
	A, B int
	Mode BridgeMode
}

// Describe implements Fault.
func (f Bridge) Describe() string {
	return fmt.Sprintf("bridge %d~%d %s", f.A+1, f.B+1, f.Mode)
}

// AppendOps implements Fault: the short is enforced at the input and
// after every comparator touching either line.
func (f Bridge) AppendOps(dst []eval.Op, w *network.Network) []eval.Op {
	short := eval.Op{Kind: eval.OpShortOR, A: f.A, B: f.B}
	if f.Mode == WiredAND {
		short.Kind = eval.OpShortAND
	}
	dst = append(dst, short)
	for _, c := range w.Comps {
		dst = append(dst, eval.Op{Kind: eval.OpCmp, A: c.A, B: c.B})
		if c.A == f.A || c.A == f.B || c.B == f.A || c.B == f.B {
			dst = append(dst, short)
		}
	}
	return dst
}

// Eval implements Fault.
func (f Bridge) Eval(w *network.Network, v bitvec.Vec) bitvec.Vec {
	return Compile(w, f).Apply(v)
}

// Enumerate lists the standard single-fault universe for a network:
// three modes per comparator, two stuck values per line, and two bridge
// modes per adjacent line pair.
func Enumerate(w *network.Network) []Fault {
	var out []Fault
	for i := range w.Comps {
		out = append(out, CompFault{Index: i, Mode: Bypass},
			CompFault{Index: i, Mode: AlwaysSwap},
			CompFault{Index: i, Mode: Reverse})
	}
	for l := 0; l < w.N; l++ {
		out = append(out, StuckLine{Line: l, Value: 0}, StuckLine{Line: l, Value: 1})
	}
	for l := 0; l+1 < w.N; l++ {
		out = append(out, Bridge{A: l, B: l + 1, Mode: WiredOR},
			Bridge{A: l, B: l + 1, Mode: WiredAND})
	}
	return out
}

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
// Faulty circuits are simulated as differences from the healthy one,
// not compiled one program per fault. Each fault reports, via
// AppendEdits, its edits to the healthy circuit's firing order (a
// bypassed comparator is replaced by a no-op, a stuck line is clamped
// and a bridge shorted before the first comparator touching its lines
// and after every one), and a whole fault list reports into one edit
// buffer. Measure, DetectionMatrix and MeasureMasking run eval's fault
// pass over it: per block the healthy circuit runs once, keeping the
// line state before each comparator, and each fault runs from the
// state at its first edit with the word-parallel kernels; on a long
// circuit it leaves the pass where it rejoins the healthy run. So a
// fault list costs memory linear in the comparators, and time about
// linear too. When the tests are a span of the 2ⁿ universe, as a
// sorter's are, one pass over the universe gives both which faults
// any input detects and which the tests detect; other tests take a
// pass over the universe and then one over the tests. The list is
// split into contiguous chunks by the pass's work (chunkCount): a
// small request runs on its caller's goroutine, a large one on up to
// GOMAXPROCS goroutines, one pass each.
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
	// AppendEdits appends the fault's edits to w's healthy firing
	// order (see eval.Edit) to dst, in firing order.
	AppendEdits(dst []eval.Edit, w *network.Network) []eval.Edit
	// Eval runs the faulty circuit on a binary input. It compiles on
	// the fly; hot paths should compile once via faults.Compile.
	Eval(w *network.Network, v bitvec.Vec) bitvec.Vec
}

// Compile builds the whole program of the faulty circuit: the
// healthy firing order with the fault's edits applied. The program
// evaluates on all of eval's paths — scalar and block — exactly like a
// healthy network's program.
func Compile(w *network.Network, f Fault) *eval.Program {
	return eval.EditProgram(w, f.AppendEdits(nil, w))
}

// faultSet reports the edits of every fault of fs into one buffer and
// returns the fault set over it, indexed like fs. Each fault's
// AppendEdits runs once. The buffer is sized first from the faults'
// edit bounds (editBounder), from one count of the comparators
// touching each line, so for this package's faults it is allocated
// once; other faults grow it.
func faultSet(w *network.Network, fs []Fault) *eval.FaultSet {
	touches := make([]int, w.N)
	for _, c := range w.Comps {
		touches[c.A]++
		touches[c.B]++
	}
	size := 0
	for _, f := range fs {
		if b, ok := f.(editBounder); ok {
			size += b.editBound(touches)
		}
	}
	edits := make([]eval.Edit, 0, size)
	ends := make([]int, len(fs))
	for i, f := range fs {
		edits = f.AppendEdits(edits, w)
		ends[i] = len(edits)
	}
	return eval.NewFaultSet(w, edits, ends)
}

// editBounder is a fault that bounds its edit count without listing
// its edits: touches[l] is the number of comparators touching line l.
type editBounder interface {
	editBound(touches []int) int
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

// AppendEdits implements Fault: comparator Index fires in its fault
// mode, the rest are standard. An Index outside the network never
// triggers, so the fault has no edits.
func (f CompFault) AppendEdits(dst []eval.Edit, w *network.Network) []eval.Edit {
	if f.Index < 0 || f.Index >= len(w.Comps) {
		return dst
	}
	c := w.Comps[f.Index]
	return append(dst, eval.Edit{At: int32(f.Index), Op: eval.Op{Kind: opFor(f.Mode), A: uint16(c.A), B: uint16(c.B)}})
}

// editBound implements editBounder: at most one replacement.
func (f CompFault) editBound([]int) int { return 1 }

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

// AppendEdits implements Fault: the clamp holds along the entire line
// (a defective wire segment), enforced by appendAlong.
func (f StuckLine) AppendEdits(dst []eval.Edit, w *network.Network) []eval.Edit {
	clamp := eval.Op{Kind: eval.OpClamp0, A: uint16(f.Line)}
	if f.Value == 1 {
		clamp.Kind = eval.OpClamp1
	}
	return appendAlong(dst, w, clamp, f.Line, f.Line)
}

// appendAlong appends the edits that enforce op, a clamp or short,
// along lines a and b for the whole circuit: just before the first
// comparator touching either line and after every one, or once after
// the last comparator when none touches them. Comparators on other
// lines commute with op, so this equals enforcing it at the input and
// after every touching comparator.
func appendAlong(dst []eval.Edit, w *network.Network, op eval.Op, a, b int) []eval.Edit {
	touched := false
	for i, c := range w.Comps {
		if c.A != a && c.A != b && c.B != a && c.B != b {
			continue
		}
		if !touched {
			dst = append(dst, eval.Edit{At: int32(i), Op: op})
			touched = true
		}
		dst = append(dst, eval.Edit{At: int32(i + 1), Op: op})
	}
	if !touched {
		dst = append(dst, eval.Edit{At: int32(len(w.Comps)), Op: op})
	}
	return dst
}

// editBound implements editBounder: a clamp before the first
// comparator touching the line and after each one (see appendAlong).
func (f StuckLine) editBound(touches []int) int { return touches[f.Line] + 1 }

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

// AppendEdits implements Fault: the short holds along both lines for
// the whole circuit, enforced by appendAlong.
func (f Bridge) AppendEdits(dst []eval.Edit, w *network.Network) []eval.Edit {
	short := eval.Op{Kind: eval.OpShortOR, A: uint16(f.A), B: uint16(f.B)}
	if f.Mode == WiredAND {
		short.Kind = eval.OpShortAND
	}
	return appendAlong(dst, w, short, f.A, f.B)
}

// editBound implements editBounder: a short before the first
// comparator touching either line and after each one (see
// appendAlong), counting a comparator across both lines twice.
func (f Bridge) editBound(touches []int) int { return touches[f.A] + touches[f.B] + 1 }

// Eval implements Fault.
func (f Bridge) Eval(w *network.Network, v bitvec.Vec) bitvec.Vec {
	return Compile(w, f).Apply(v)
}

// Enumerate lists the standard single-fault universe for a network:
// three modes per comparator, two stuck values per line, and two bridge
// modes per adjacent line pair, 3C + 2n + 2(n−1) faults in all. Each
// kind is boxed from one backing array, so the faults are a
// *CompFault, *StuckLine or *Bridge, and the list costs at most four
// allocations whatever its length.
func Enumerate(w *network.Network) []Fault {
	comps := make([]CompFault, 0, 3*len(w.Comps))
	for i := range w.Comps {
		comps = append(comps, CompFault{Index: i, Mode: Bypass},
			CompFault{Index: i, Mode: AlwaysSwap},
			CompFault{Index: i, Mode: Reverse})
	}
	stuck := make([]StuckLine, 0, 2*w.N)
	for l := 0; l < w.N; l++ {
		stuck = append(stuck, StuckLine{Line: l, Value: 0}, StuckLine{Line: l, Value: 1})
	}
	bridges := make([]Bridge, 0, 2*max(w.N-1, 0))
	for l := 0; l+1 < w.N; l++ {
		bridges = append(bridges, Bridge{A: l, B: l + 1, Mode: WiredOR},
			Bridge{A: l, B: l + 1, Mode: WiredAND})
	}
	out := make([]Fault, 0, len(comps)+len(stuck)+len(bridges))
	for i := range comps {
		out = append(out, &comps[i])
	}
	for i := range stuck {
		out = append(out, &stuck[i])
	}
	for i := range bridges {
		out = append(out, &bridges[i])
	}
	return out
}

package eval

import (
	"fmt"

	"sortnets/internal/network"
)

// Block sizing. The engine evaluates a stream in blocks of at most
// maxLanes vectors, and a block of k vectors carries ⌈k/64⌉ words per
// line: a short stream, a ramp block or a ragged tail transposes and
// evaluates only the words it fills, while long streams run at the
// cap, where the per-block costs (stream handoff, judge call, context
// check) are spread over 256 vectors. The block schedule is the
// sequential stream order whatever the block sizes, so they never
// change a verdict.
const (
	maxWords = 4
	maxLanes = maxWords * network.LanesPerWord
)

// KernelLanes returns the lane capacity of one engine block: 256
// lanes, four words per line.
func KernelLanes() int { return maxLanes }

// ApplyBatch advances all 64·W lanes of a batch through the program in
// place. Pure programs skip opcode dispatch entirely — one AND and one
// OR per comparator and word, layer by layer, with the one-word and
// four-word cases unrolled so the compiler schedules them without
// bounds checks — and every fault opcode has a word-parallel form, so
// fault-injected programs evaluate 64 test vectors per word and step
// exactly like healthy ones.
func (p *Program) ApplyBatch(b *network.Batch) {
	if b.N != p.n {
		panic(fmt.Sprintf("eval: batch has %d lines, program wants %d", b.N, p.n))
	}
	if !p.pure {
		applyOps(p.ops, b.Lines, b.W)
		return
	}
	switch b.W {
	case 1:
		applyPure1(p.comps, b.Lines)
	case 4:
		applyPure4(p.comps, b.Lines)
	default:
		applyPureW(p.comps, b.Lines, b.W)
	}
}

// applyPure1 is the one-word pure kernel.
func applyPure1(comps []network.Comparator, lines []uint64) {
	for _, c := range comps {
		x, y := lines[c.A], lines[c.B]
		lines[c.A] = x & y
		lines[c.B] = x | y
	}
}

// applyPure4 is the four-word (full block) pure kernel, unrolled.
func applyPure4(comps []network.Comparator, lines []uint64) {
	for _, c := range comps {
		a := (*[4]uint64)(lines[c.A*4:])
		b := (*[4]uint64)(lines[c.B*4:])
		x0, y0 := a[0], b[0]
		x1, y1 := a[1], b[1]
		x2, y2 := a[2], b[2]
		x3, y3 := a[3], b[3]
		a[0], b[0] = x0&y0, x0|y0
		a[1], b[1] = x1&y1, x1|y1
		a[2], b[2] = x2&y2, x2|y2
		a[3], b[3] = x3&y3, x3|y3
	}
}

// applyPureW is the pure kernel for any word count.
func applyPureW(comps []network.Comparator, lines []uint64, W int) {
	for _, c := range comps {
		la := lines[c.A*W : c.A*W+W]
		lb := lines[c.B*W : c.B*W+W]
		for g := range la {
			x, y := la[g], lb[g]
			la[g] = x & y
			lb[g] = x | y
		}
	}
}

// applyOps evaluates an op sequence (fault-injected programs
// included) at W words per line.
func applyOps(ops []Op, lines []uint64, W int) {
	for _, op := range ops {
		la := lines[op.A*W : op.A*W+W]
		var lb []uint64
		if op.Kind != OpClamp0 && op.Kind != OpClamp1 {
			lb = lines[op.B*W : op.B*W+W]
		}
		switch op.Kind {
		case OpCmp:
			for g := range la {
				x, y := la[g], lb[g]
				la[g] = x & y
				lb[g] = x | y
			}
		case OpNop:
		case OpSwap:
			for g := range la {
				la[g], lb[g] = lb[g], la[g]
			}
		case OpRevCmp:
			for g := range la {
				x, y := la[g], lb[g]
				la[g] = x | y
				lb[g] = x & y
			}
		case OpClamp0:
			for g := range la {
				la[g] = 0
			}
		case OpClamp1:
			for g := range la {
				la[g] = ^uint64(0)
			}
		case OpShortOR:
			for g := range la {
				s := la[g] | lb[g]
				la[g], lb[g] = s, s
			}
		case OpShortAND:
			for g := range la {
				s := la[g] & lb[g]
				la[g], lb[g] = s, s
			}
		}
	}
}

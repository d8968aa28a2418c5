// Package network implements comparator networks in the model of Chung
// & Ravikumar: a network of size n is a sequence of *standard*
// comparators [a,b] with a < b that place the smaller of the two values
// on the top line a and the larger on the bottom line b. Standard
// comparators can never unsort a sorted input, the property the paper's
// lower bounds lean on (a "nonstandard" reversed comparator is modelled
// in package faults as a hardware defect, not as a network element).
//
// Three evaluation paths are provided:
//
//   - Apply/ApplyInPlace: arbitrary integer inputs (permutations).
//   - ApplyVec: a single 0/1 input packed in a machine word; a
//     comparator exchange is two bit operations.
//   - Batch: 64·W independent 0/1 inputs of any width evaluated
//     simultaneously, W words per line, a comparator being one AND and
//     one OR per word. This is the layout of the verification engine
//     (internal/eval) — it evaluates the network on 64 test vectors per
//     word for the cost of one.
//
// Lines are 0-based internally; the text format and diagrams use the
// paper's 1-based lines.
package network

import (
	"fmt"
	"math/rand"

	"sortnets/internal/bitvec"
)

// Comparator is a standard comparator on lines A < B (0-based): after
// it fires, line A carries min and line B carries max.
type Comparator struct {
	A, B int
}

// Valid reports whether the comparator is standard and fits n lines.
func (c Comparator) Valid(n int) bool {
	return 0 <= c.A && c.A < c.B && c.B < n
}

// Height is the span b−a of the comparator; Section 3 of the paper
// classifies networks by their maximum comparator height.
func (c Comparator) Height() int { return c.B - c.A }

// String renders in the paper's 1-based notation, e.g. "[1,3]".
func (c Comparator) String() string { return fmt.Sprintf("[%d,%d]", c.A+1, c.B+1) }

// Network is a comparator network: n lines and an ordered sequence of
// comparators. The zero value is the empty network on 0 lines.
type Network struct {
	N     int
	Comps []Comparator
}

// New returns an empty network (no comparators) on n lines; the empty
// network is the identity and, per the paper's base case, serves as
// H_10 for n = 2.
func New(n int) *Network {
	if n < 0 {
		panic(fmt.Sprintf("network: negative line count %d", n))
	}
	return &Network{N: n}
}

// Add appends comparators, validating each, and returns the network for
// chaining. It panics on a nonstandard or out-of-range comparator.
func (w *Network) Add(comps ...Comparator) *Network {
	for _, c := range comps {
		if !c.Valid(w.N) {
			panic(fmt.Sprintf("network: invalid comparator %v on %d lines", c, w.N))
		}
		w.Comps = append(w.Comps, c)
	}
	return w
}

// AddPair appends the comparator [a,b] given 0-based lines.
func (w *Network) AddPair(a, b int) *Network { return w.Add(Comparator{A: a, B: b}) }

// Size returns the number of comparators.
func (w *Network) Size() int { return len(w.Comps) }

// Validate checks every comparator; networks built through Add are
// always valid, but parsed or hand-assembled ones may not be.
func (w *Network) Validate() error {
	if w.N < 0 {
		return fmt.Errorf("network: negative line count %d", w.N)
	}
	for i, c := range w.Comps {
		if !c.Valid(w.N) {
			return fmt.Errorf("network: comparator %d (%v) invalid on %d lines", i, c, w.N)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (w *Network) Clone() *Network {
	c := &Network{N: w.N, Comps: make([]Comparator, len(w.Comps))}
	copy(c.Comps, w.Comps)
	return c
}

// Apply runs the network on an integer input vector (e.g. a
// permutation), returning a fresh output slice.
func (w *Network) Apply(in []int) []int {
	out := make([]int, len(in))
	copy(out, in)
	w.ApplyInPlace(out)
	return out
}

// ApplyInPlace runs the network on v, mutating it. Panics if the length
// does not match the line count.
func (w *Network) ApplyInPlace(v []int) {
	if len(v) != w.N {
		panic(fmt.Sprintf("network: input length %d, want %d lines", len(v), w.N))
	}
	for _, c := range w.Comps {
		if v[c.A] > v[c.B] {
			v[c.A], v[c.B] = v[c.B], v[c.A]
		}
	}
}

// ApplyVec runs the network on a packed 0/1 input. A comparator [a,b]
// swaps exactly when line a carries 1 and line b carries 0; the
// branch-free update XORs both lines with that condition bit.
func (w *Network) ApplyVec(v bitvec.Vec) bitvec.Vec {
	if v.N != w.N {
		panic(fmt.Sprintf("network: input length %d, want %d lines", v.N, w.N))
	}
	bits := v.Bits
	for _, c := range w.Comps {
		m := (bits >> uint(c.A)) &^ (bits >> uint(c.B)) & 1
		bits ^= m<<uint(c.A) | m<<uint(c.B)
	}
	return bitvec.Vec{N: v.N, Bits: bits}
}

// Sorts reports whether the network sorts the given 0/1 input.
func (w *Network) Sorts(v bitvec.Vec) bool { return w.ApplyVec(v).IsSorted() }

// Depth returns the number of parallel stages when comparators are
// packed greedily into layers (comparators touching disjoint lines may
// fire simultaneously).
func (w *Network) Depth() int {
	busy := make([]int, w.N)
	depth := 0
	for _, c := range w.Comps {
		layer := max(busy[c.A], busy[c.B]) + 1
		busy[c.A], busy[c.B] = layer, layer
		if layer > depth {
			depth = layer
		}
	}
	return depth
}

// Layers groups comparators into the greedy parallel stages counted by
// Depth.
func (w *Network) Layers() [][]Comparator {
	busy := make([]int, w.N)
	var layers [][]Comparator
	for _, c := range w.Comps {
		layer := max(busy[c.A], busy[c.B]) + 1
		busy[c.A], busy[c.B] = layer, layer
		for len(layers) < layer {
			layers = append(layers, nil)
		}
		layers[layer-1] = append(layers[layer-1], c)
	}
	return layers
}

// Height returns the maximum comparator span max(b−a), the parameter of
// Section 3's height-k networks; the empty network has height 0.
// Height-1 networks are the "primitive" networks of de Bruijn.
func (w *Network) Height() int {
	h := 0
	for _, c := range w.Comps {
		if s := c.Height(); s > h {
			h = s
		}
	}
	return h
}

// Append concatenates other's comparators after w's (both on the same
// number of lines), returning w for chaining.
func (w *Network) Append(other *Network) *Network {
	if other.N != w.N {
		panic(fmt.Sprintf("network: appending %d-line network to %d-line network", other.N, w.N))
	}
	w.Comps = append(w.Comps, other.Comps...)
	return w
}

// OnLines embeds w into a network with total lines, routing w's line i
// to lines[i]. The mapping must be injective and order-preserving is
// NOT required of the caller — but a standard comparator must remain
// standard, so for every comparator [a,b] of w, lines[a] < lines[b]
// must hold; otherwise OnLines panics. This is the figure-assembly
// primitive for the Lemma 2.1 construction ("H₁₀₀ has 3 input
// lines—k, l and n; all other lines bypass").
func (w *Network) OnLines(total int, lines []int) *Network {
	if len(lines) != w.N {
		panic(fmt.Sprintf("network: OnLines got %d lines for %d-line network", len(lines), w.N))
	}
	seen := make(map[int]bool, len(lines))
	for _, l := range lines {
		if l < 0 || l >= total {
			panic(fmt.Sprintf("network: OnLines target %d out of range 0..%d", l, total-1))
		}
		if seen[l] {
			panic(fmt.Sprintf("network: OnLines duplicate target line %d", l))
		}
		seen[l] = true
	}
	out := New(total)
	for _, c := range w.Comps {
		a, b := lines[c.A], lines[c.B]
		if a >= b {
			panic(fmt.Sprintf("network: OnLines maps %v to nonstandard [%d,%d]", c, a+1, b+1))
		}
		out.AddPair(a, b)
	}
	return out
}

// Mirror returns the top-bottom reflection of the network: comparator
// [a,b] becomes [n−1−b, n−1−a] (still standard), in the same firing
// order. Mirroring is the network half of the reverse-complement
// duality: for every input σ, Mirror(H)(rc(σ)) = rc(H(σ)), where rc
// reverses the lines and complements the bits. The duality maps sorted
// strings to sorted strings, so H is a sorter iff Mirror(H) is, and an
// almost-sorter for σ mirrors into an almost-sorter for rc(σ) — the
// "identical, we omit it" symmetric case of Lemma 2.1.
func (w *Network) Mirror() *Network {
	m := New(w.N)
	for _, c := range w.Comps {
		m.AddPair(w.N-1-c.B, w.N-1-c.A)
	}
	return m
}

// Untouched returns the lines no comparator touches; inputs on those
// lines pass through unchanged.
func (w *Network) Untouched() []int {
	touched := make([]bool, w.N)
	for _, c := range w.Comps {
		touched[c.A], touched[c.B] = true, true
	}
	var out []int
	for i, t := range touched {
		if !t {
			out = append(out, i)
		}
	}
	return out
}

// Random returns a network of the given size with comparators drawn
// uniformly from all C(n,2) standard comparators. Random networks are
// the paper's "arbitrary network H" — the object a test set must judge.
func Random(n, size int, rng *rand.Rand) *Network {
	if n < 2 && size > 0 {
		panic("network: need at least 2 lines for a comparator")
	}
	w := New(n)
	for i := 0; i < size; i++ {
		a := rng.Intn(n - 1)
		b := a + 1 + rng.Intn(n-1-a)
		w.AddPair(a, b)
	}
	return w
}

// RandomHeightBounded returns a random network whose comparators all
// have height ≤ h (Section 3's restricted class).
func RandomHeightBounded(n, size, h int, rng *rand.Rand) *Network {
	if h < 1 {
		panic("network: height bound must be ≥ 1")
	}
	w := New(n)
	for i := 0; i < size; i++ {
		a := rng.Intn(n - 1)
		maxSpan := min(h, n-1-a)
		b := a + 1 + rng.Intn(maxSpan)
		w.AddPair(a, b)
	}
	return w
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

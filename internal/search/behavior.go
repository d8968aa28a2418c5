// Package search computes *exact* minimum test sets by exhausting the
// behaviour space of comparator networks — the machinery behind the
// experiments that confirm Theorem 2.2 computationally for small n,
// verify de Bruijn's single-test theorem for height-1 (primitive)
// networks, and attack the height-2 question the paper poses as open
// in Section 3.
//
// A network computes a monotone function f : {0,1}ⁿ → {0,1}ⁿ; although
// networks are unbounded in length, only finitely many such functions
// are reachable, and the reachable set is the closure of the identity
// under "append one comparator". A set T of inputs is a test set for a
// property within a network class iff T hits the failure set of every
// reachable incorrect behaviour; the minimum test set is therefore a
// minimum hitting set over those failure sets, computed exactly by
// branch and bound in hitting.go.
//
// The pipeline is one deterministic pass up to the branch and bound:
// the closure BFS runs on a dense byte arena with an open-addressing
// interning table (closure.go), one scan of the arena builds the
// failure masks, superset pruning sorts them, drops duplicates and
// buckets by popcount (prune.go), and the hitting-set branch and bound
// (solver.go) uses per-worker scratch and, with more than one worker,
// a shared incumbent.
package search

import (
	"context"
	"encoding/binary"
	"fmt"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// Behavior is the full input-output table of a network on binary
// inputs: entry x is the packed output word for the packed input x.
// Stored as a string so it can key maps; each output occupies one byte
// (n ≤ 8).
type Behavior string

// MaxLines bounds the supported line count: outputs are stored one
// byte per input, and the 2ⁿ-entry table must stay small enough to
// enumerate (the behaviour closure grows quickly with n).
const MaxLines = 8

// identityTable returns the identity behaviour as raw bytes.
func identityTable(n int) []byte {
	if n < 1 || n > MaxLines {
		panic(fmt.Sprintf("search: n=%d out of range 1..%d", n, MaxLines))
	}
	table := make([]byte, bitvec.Universe(n))
	for x := range table {
		table[x] = byte(x)
	}
	return table
}

// Identity returns the behaviour of the empty network.
func Identity(n int) Behavior { return Behavior(identityTable(n)) }

// Apply returns the behaviour of "this network followed by comparator
// [a,b]": every output word is routed through the comparator.
func (b Behavior) Apply(c network.Comparator) Behavior {
	out := make([]byte, len(b))
	applyComparatorTable(out, []byte(b), c)
	return Behavior(out)
}

// applyComparatorTable routes every output word of src through the
// comparator, writing to dst (the closure-engine expand step). Eight
// one-byte table entries are processed per iteration, SWAR-style:
// after (x>>a)&0x0101…, bit 0 of each lane is bit a of that entry
// (cross-lane leakage only reaches the masked-off high bits, since
// a, b < 8), so the usual exchange mask works on all lanes at once.
func applyComparatorTable(dst, src []byte, c network.Comparator) {
	a, b := uint(c.A), uint(c.B)
	const lanes = 0x0101010101010101
	i := 0
	for ; i+8 <= len(src); i += 8 {
		x := binary.LittleEndian.Uint64(src[i:])
		m := (x >> a) &^ (x >> b) & lanes
		binary.LittleEndian.PutUint64(dst[i:], x^(m<<a|m<<b))
	}
	for ; i < len(src); i++ {
		w := src[i]
		m := (w >> a) &^ (w >> b) & 1
		dst[i] = w ^ (m<<a | m<<b)
	}
}

// Output returns the packed output for packed input x.
func (b Behavior) Output(x int) byte { return b[x] }

// OfNetwork tabulates a concrete network's behaviour.
func OfNetwork(w *network.Network) Behavior {
	b := Identity(w.N)
	for _, c := range w.Comps {
		b = b.Apply(c)
	}
	return b
}

// Comparators returns the comparator alphabet for n lines with height
// at most h (h ≥ n−1 means unrestricted).
func Comparators(n, h int) []network.Comparator {
	var out []network.Comparator
	for a := 0; a < n; a++ {
		for b := a + 1; b < n && b-a <= h; b++ {
			out = append(out, network.Comparator{A: a, B: b})
		}
	}
	return out
}

// binaryClosureStore enumerates the closure on the dense store.
func binaryClosureStore(ctx context.Context, n int, alphabet []network.Comparator, limit int) (*behaviorStore, error) {
	seed := identityTable(n)
	return closureStore(ctx, len(seed), seed, len(alphabet), func(dst, src []byte, c int) {
		applyComparatorTable(dst, src, alphabet[c])
	}, limit)
}

// Closure enumerates every behaviour reachable by networks over the
// given comparator alphabet, by BFS from the identity. limit caps the
// number of behaviours explored (0 means unlimited); exceeding it
// returns an error so callers never silently truncate a universe they
// meant to exhaust. The BFS runs on the dense closure engine, whose
// enumeration order is the same on every run.
func Closure(n int, alphabet []network.Comparator, limit int) ([]Behavior, error) {
	st, err := binaryClosureStore(context.Background(), n, alphabet, limit)
	if err != nil {
		return nil, err
	}
	out := make([]Behavior, st.count)
	for i := range out {
		out[i] = Behavior(st.at(i))
	}
	return out, nil
}

// Acceptance judges one input/output pair of a behaviour under a
// property (mirrors verify.Property on packed words).
type Acceptance func(n int, in, out byte) bool

// SorterAccepts is the sorting property on packed words.
func SorterAccepts(n int, in, out byte) bool {
	return bitvec.New(n, uint64(out)).IsSorted()
}

// SelectorAccepts returns the (k,n)-selector acceptance.
func SelectorAccepts(k int) Acceptance {
	return func(n int, in, out byte) bool {
		want := bitvec.New(n, uint64(in)).Sorted()
		mask := byte(1<<uint(k) - 1)
		return out&mask == byte(want.Bits)&mask
	}
}

// MergerAccepts is the (n/2,n/2)-merger acceptance: out-of-contract
// inputs (unsorted halves) are accepted vacuously.
func MergerAccepts(n int, in, out byte) bool {
	h := n / 2
	v := bitvec.New(n, uint64(in))
	if !v.Slice(0, h).IsSorted() || !v.Slice(h, n).IsSorted() {
		return true
	}
	return bitvec.New(n, uint64(out)).IsSorted()
}

// rejectTable tabulates the acceptance once over the full
// (input, output) square: rej[x] has bit o set when output o on input
// x violates the property. Mask building then touches no closures at
// all — one shift and AND per table entry.
func rejectTable(n int, accepts Acceptance) []uint64 {
	u := bitvec.Universe(n)
	rej := make([]uint64, u)
	for x := 0; x < u; x++ {
		var w uint64
		for o := 0; o < u; o++ {
			if !accepts(n, byte(x), byte(o)) {
				w |= 1 << uint(o)
			}
		}
		rej[x] = w
	}
	return rej
}

// FailureMask returns the set of inputs (as a bitmask over packed
// inputs; n ≤ 6 so the universe fits 64 bits) on which the behaviour
// violates the property.
func FailureMask(n int, b Behavior, accepts Acceptance) uint64 {
	if bitvec.Universe(n) > 64 {
		panic(fmt.Sprintf("search: failure masks need 2^%d ≤ 64 inputs", n))
	}
	var mask uint64
	for x := 0; x < len(b); x++ {
		if !accepts(n, byte(x), b[x]) {
			mask |= 1 << uint(x)
		}
	}
	return mask
}

// failureMasks computes the failure mask of every incorrect behaviour
// in the dense store, in store order and with duplicates kept:
// pruneSupersets drops them as neighbours after its sort. A cancelled
// context stops the scan and returns the context's error.
func (st *behaviorStore) failureMasks(ctx context.Context, n int, accepts Acceptance) ([]uint64, error) {
	if bitvec.Universe(n) > 64 {
		panic(fmt.Sprintf("search: failure masks need 2^%d ≤ 64 inputs", n))
	}
	rej := rejectTable(n, accepts)
	var fam []uint64
	for i := 0; i < st.count; i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var mask uint64
		for x, o := range st.at(i) {
			mask |= (rej[x] >> uint(o) & 1) << uint(x)
		}
		if mask != 0 {
			fam = append(fam, mask)
		}
	}
	return fam, nil
}

// FailureFamily computes the deduplicated, superset-pruned family of
// failure masks of every incorrect behaviour in the closure. Hitting
// every member of the family is exactly the test-set condition, and
// pruning supersets preserves minimum hitting sets: any T hitting a
// subset hits its supersets for free. The result is in canonical
// (popcount, value) order regardless of the order of behaviors.
func FailureFamily(n int, behaviors []Behavior, accepts Acceptance) []uint64 {
	seen := map[uint64]bool{}
	var fam []uint64
	for _, b := range behaviors {
		m := FailureMask(n, b, accepts)
		if m != 0 && !seen[m] {
			seen[m] = true
			fam = append(fam, m)
		}
	}
	return pruneSupersets(fam)
}

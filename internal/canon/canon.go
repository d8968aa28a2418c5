// Package canon computes a canonical form and a stable digest for
// comparator networks, so that structurally equivalent networks — the
// same circuit written down differently — share one identity. The
// serving layer (internal/serve) keys its result cache on this digest:
// two requests that differ only in presentation hit the same entry.
//
// Two sources of presentational freedom are normalized away:
//
//   - Ordering within a layer. Comparators on disjoint lines commute,
//     so any interleaving of a parallel layer computes the same
//     function. Normalize recomputes the greedy layer schedule (the
//     one Depth/Layers and the compiled engine use) and sorts each
//     layer's comparators by line, which is a fixpoint: normalizing a
//     normalized network changes nothing.
//   - Orientation, for generalized inputs. A "tangled" network writes
//     comparators with the max output on the top wire. Untangle
//     relabels lanes forward through the circuit (the classical
//     Floyd–Knuth standardization) so every comparator is standard;
//     the residual output permutation it reports is the exact
//     correction term, and is the identity precisely when the tangled
//     writing computes the same function as its standard form.
//
// Both transforms preserve the computed function exactly (Untangle up
// to its reported output relabeling), so a verdict computed for the
// canonical form is byte-for-byte the verdict of the submitted
// network — the property that makes digest-keyed caching sound.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"sortnets/internal/network"
)

// Normalize returns the canonical presentation of a standard network:
// comparators are grouped into their greedy data-independent layers
// (exactly the schedule network.Layers computes) and sorted by
// (A, B) within each layer. The result computes the same function as
// w on every input — comparators within a layer touch disjoint lines,
// so they commute — and Normalize is a fixpoint: applying it twice
// yields the same comparator sequence. w is not modified.
//
// The order comes from two stable counting passes: comparator indices
// by top line A, then comparators by greedy layer (the bucket
// schedule eval.Compile uses). A layer's comparators have distinct
// top lines, so A alone orders a layer as (A, B) does. The cost is
// three allocations — the network, one scratch slab and one
// exact-size comparator slice — whatever the comparator count.
func Normalize(w *network.Network) *network.Network {
	out := network.New(w.N)
	m := len(w.Comps)
	if m == 0 {
		return out
	}
	// layer[i] is comparator i's greedy layer, byTop the indices in
	// top-line order, and count the per-line busy-until layer, then
	// the buckets of each pass.
	scratch := make([]int, 2*m+max(w.N, m))
	layer, byTop, count := scratch[:m], scratch[m:2*m], scratch[2*m:]
	depth := 0
	for i, c := range w.Comps {
		l := max(count[c.A], count[c.B])
		count[c.A], count[c.B] = l+1, l+1
		layer[i] = l
		depth = max(depth, l+1)
	}
	clear(count)
	for _, c := range w.Comps {
		count[c.A]++
	}
	bucketStarts(count[:w.N])
	for i, c := range w.Comps {
		byTop[count[c.A]] = i
		count[c.A]++
	}
	clear(count)
	for _, l := range layer {
		count[l]++
	}
	bucketStarts(count[:depth])
	comps := make([]network.Comparator, m)
	for _, i := range byTop {
		comps[count[layer[i]]] = w.Comps[i]
		count[layer[i]]++
	}
	out.Comps = comps
	return out
}

// bucketStarts turns per-bucket counts into each bucket's first
// position in the sorted order.
func bucketStarts(count []int) {
	sum := 0
	for k, c := range count {
		count[k], sum = sum, sum+c
	}
}

// Untangle standardizes a generalized comparator sequence on n lines.
// Each pair (i, j) is a comparator that places the MIN on line i and
// the MAX on line j — standard when i < j, tangled when i > j. The
// relabeling sweep keeps a lane map r (initially the identity): a
// tangled comparator is emitted in standard orientation and the two
// lanes swap names for everything downstream. The standard network
// is written into one exact-size comparator slice.
//
// The returned network S and permutation r satisfy, for every input
// x and every line l:
//
//	G(x)[l] == S(x)[r[l]]
//
// where G is the submitted generalized circuit. When r is the
// identity, G and S compute the same function and S (after Normalize)
// can stand in for G everywhere. When r is not the identity, G is not
// equivalent to any standard network — in particular it cannot be a
// sorter, since a standard network fixes sorted inputs and forces the
// residual permutation of any sorter to be the identity.
//
// Untangle returns an error if any pair references a line outside
// [0, n) or touches a line twice (i == j).
func Untangle(n int, pairs [][2]int) (*network.Network, []int, error) {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	s := network.New(n)
	s.Comps = make([]network.Comparator, len(pairs))
	for idx, p := range pairs {
		i, j := p[0], p[1]
		if i < 0 || j < 0 || i >= n || j >= n || i == j {
			return nil, nil, fmt.Errorf("canon: comparator %d (%d,%d) invalid on %d lines", idx, i, j, n)
		}
		a, b := r[i], r[j]
		if a > b {
			// Tangled: emit the standard orientation and swap the lane
			// names so downstream comparators (and the outputs) follow.
			a, b = b, a
			r[i], r[j] = a, b
		}
		s.Comps[idx] = network.Comparator{A: a, B: b}
	}
	return s, r, nil
}

// IsIdentity reports whether a lane relabeling is the identity.
func IsIdentity(r []int) bool {
	for i, v := range r {
		if i != v {
			return false
		}
	}
	return true
}

// digestVersion tags the digest format; bump it if the canonical
// form or the encoding ever changes, so stale cache keys can never
// alias fresh ones.
const digestVersion = "sortnets-canon-v1"

// Digest returns a stable SHA-256 digest of the network's canonical
// form: any two standard networks whose normalized comparator
// sequences agree share a digest, regardless of how their parallel
// layers were interleaved at submission.
func Digest(w *network.Network) [sha256.Size]byte {
	return digestNormalized(Normalize(w))
}

// Canonicalize returns the canonical form and its hex digest in one
// pass — the serving layer's entry point, which needs both and should
// not pay for normalizing twice. It costs Normalize's three
// allocations plus the hex string.
func Canonicalize(w *network.Network) (*network.Network, string) {
	c := Normalize(w)
	d := digestNormalized(c)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], d[:])
	return c, string(hx[:])
}

// digestNormalized hashes an already-canonical network: the version
// tag, then uvarints of N, the comparator count and each comparator's
// A and B. The stream is laid out in one stack buffer, which holds
// about 2000 comparators on up to 128 lines (a larger network spills
// it to the heap), and hashed with one sha256.Sum256.
func digestNormalized(c *network.Network) [sha256.Size]byte {
	var stack [4096]byte
	buf := append(stack[:0], digestVersion...)
	buf = binary.AppendUvarint(buf, uint64(c.N))
	buf = binary.AppendUvarint(buf, uint64(len(c.Comps)))
	for _, cmp := range c.Comps {
		buf = binary.AppendUvarint(buf, uint64(cmp.A))
		buf = binary.AppendUvarint(buf, uint64(cmp.B))
	}
	return sha256.Sum256(buf)
}

// DigestString is Digest rendered as lowercase hex — the cache-key
// form used by the serving layer.
func DigestString(w *network.Network) string {
	_, d := Canonicalize(w)
	return d
}

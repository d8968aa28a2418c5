package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sortnets/internal/network"
)

// normalizeReference is the Normalize that the counting passes
// replaced: network.Layers, a sort.Slice per layer and one Add per
// layer. It is kept as the oracle for the canonical order.
func normalizeReference(w *network.Network) *network.Network {
	out := network.New(w.N)
	for _, layer := range w.Layers() {
		layer = append([]network.Comparator(nil), layer...)
		sort.Slice(layer, func(i, j int) bool {
			if layer[i].A != layer[j].A {
				return layer[i].A < layer[j].A
			}
			return layer[i].B < layer[j].B
		})
		out.Add(layer...)
	}
	return out
}

// digestReference is the digest the one-buffer sha256.Sum256
// replaced: the same uvarint stream, one hash Write per varint.
func digestReference(w *network.Network) [sha256.Size]byte {
	c := normalizeReference(w)
	h := sha256.New()
	h.Write([]byte(digestVersion))
	var buf [binary.MaxVarintLen64]byte
	put := func(v int) {
		h.Write(buf[:binary.PutUvarint(buf[:], uint64(v))])
	}
	put(c.N)
	put(len(c.Comps))
	for _, cmp := range c.Comps {
		put(cmp.A)
		put(cmp.B)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// checkAgainstReference fails t unless Normalize and Digest agree
// with the reference forms on w.
func checkAgainstReference(t *testing.T, w *network.Network) {
	t.Helper()
	got, want := Normalize(w), normalizeReference(w)
	if got.N != want.N || !slices.Equal(got.Comps, want.Comps) {
		t.Fatalf("Normalize(%s) = %s, reference %s", w.Format(), got.Format(), want.Format())
	}
	if Digest(w) != digestReference(w) {
		t.Fatalf("Digest(%s) differs from the reference digest", w.Format())
	}
}

// TestNormalizeAndDigestMatchReference compares the counting-pass
// Normalize and the one-buffer digest with the reference forms on
// 20,000 random networks. Line counts reach 300, so comparator lines
// need two-byte uvarints, and the largest networks outgrow the
// digest's stack buffer.
func TestNormalizeAndDigestMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20000; trial++ {
		n := 2 + rng.Intn(23)
		size := rng.Intn(120)
		switch trial % 100 {
		case 0:
			n = 1 + rng.Intn(2)
		case 1:
			n, size = 129+rng.Intn(172), rng.Intn(3000)
		}
		if n < 2 {
			size = 0
		}
		checkAgainstReference(t, network.Random(n, size, rng))
	}
}

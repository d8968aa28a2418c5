package canon

import (
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// decodeNetwork grows a standard network from raw fuzz bytes: two
// bytes per comparator, reduced mod the line count. Every byte string
// decodes to SOME valid network, so the fuzzer explores circuit
// space, not parser space.
func decodeNetwork(nByte byte, data []byte) *network.Network {
	n := 2 + int(nByte)%11 // 2..12 lines: universe sweeps stay cheap
	w := network.New(n)
	for i := 0; i+1 < len(data) && w.Size() < 64; i += 2 {
		a := int(data[i]) % n
		b := int(data[i+1]) % n
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		w.AddPair(a, b)
	}
	return w
}

// FuzzCanonRoundTrip is the canonical form's fuzz contract: Normalize
// and Digest agree with normalizeReference and digestReference (the
// same comparators, the same digest bytes), canonicalizing twice is a
// fixpoint, the digest is invariant under normalization, and the
// canonical network computes the same function as the input (checked
// over the full 2ⁿ universe — n is capped small).
func FuzzCanonRoundTrip(f *testing.F) {
	f.Add(byte(2), []byte{0, 1})
	f.Add(byte(4), []byte{0, 2, 1, 3, 0, 1, 2, 3})
	f.Add(byte(7), []byte{6, 0, 3, 3, 5, 1})
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, nByte byte, data []byte) {
		w := decodeNetwork(nByte, data)
		checkAgainstReference(t, w)
		once := Normalize(w)
		twice := Normalize(once)
		if once.Format() != twice.Format() {
			t.Fatalf("Normalize not a fixpoint:\n in:    %s\n once:  %s\n twice: %s",
				w.Format(), once.Format(), twice.Format())
		}
		if DigestString(w) != DigestString(once) {
			t.Fatalf("digest not invariant under normalization of %s", w.Format())
		}
		for x := uint64(0); x < uint64(bitvec.Universe(w.N)); x++ {
			in := bitvec.New(w.N, x)
			if got, want := once.ApplyVec(in), w.ApplyVec(in); got != want {
				t.Fatalf("canonical form diverges on %s: %s vs %s (net %s)", in, got, want, w.Format())
			}
		}
	})
}

// FuzzUntangle drives Untangle with arbitrary generalized pairs and
// checks the lane-relabeling invariant G(x)[l] == S(x)[r[l]].
func FuzzUntangle(f *testing.F) {
	f.Add(byte(2), []byte{1, 0})
	f.Add(byte(4), []byte{2, 0, 3, 1, 1, 0, 3, 2, 2, 1})
	f.Fuzz(func(t *testing.T, nByte byte, data []byte) {
		n := 2 + int(nByte)%9 // 2..10 lines
		var pairs [][2]int
		for i := 0; i+1 < len(data) && len(pairs) < 48; i += 2 {
			a, b := int(data[i])%n, int(data[i+1])%n
			if a == b {
				continue
			}
			pairs = append(pairs, [2]int{a, b})
		}
		s, r, err := Untangle(n, pairs)
		if err != nil {
			t.Fatalf("Untangle rejected in-range pairs %v: %v", pairs, err)
		}
		for x := uint64(0); x < uint64(bitvec.Universe(n)); x++ {
			in := bitvec.New(n, x)
			g := applyGeneralized(n, pairs, in)
			sv := s.ApplyVec(in)
			for l := 0; l < n; l++ {
				if g.Bits>>uint(l)&1 != sv.Bits>>uint(r[l])&1 {
					t.Fatalf("invariant broken: pairs=%v r=%v x=%s", pairs, r, in)
				}
			}
		}
	})
}

package sortnets

import (
	"context"
	"strings"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/canon"
	"sortnets/internal/core"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

// layerReversed writes w with the comparators of each greedy layer in
// reverse order: the same circuit, presented differently.
func layerReversed(w *network.Network) *network.Network {
	out := network.New(w.N)
	for _, layer := range w.Layers() {
		for i := len(layer) - 1; i >= 0; i-- {
			out.Add(layer[i])
		}
	}
	return out
}

// TestGoldenDigests pins the canonical digest with literals, computed
// with the reference forms internal/canon's tests keep. The
// digest is the wire "digest" field, the verdict-cache key, the
// ShardKey routing key and the peer-fill adoption check, so a change
// to the canonical order or the hashed stream must fail here rather
// than silently re-key every cache and shard. Each case is checked
// through ShardKey, through canon.DigestString where it has a text
// form, and as the Digest of a Session verdict.
func TestGoldenDigests(t *testing.T) {
	sigma := bitvec.New(16, 0x5a3c)
	if sigma.IsSorted() {
		t.Fatalf("σ = %s is sorted", sigma)
	}
	almost, err := core.AlmostSorter(sigma)
	if err != nil {
		t.Fatal(err)
	}
	oem := gen.OddEvenMergeSort(16)
	for _, w := range []*network.Network{oem, almost} {
		if layerReversed(w).Format() == w.Format() {
			t.Fatalf("layer reversal leaves %s unchanged", w.Format())
		}
	}
	const (
		fig1      = "dbcd1a0daac85cc4d8f029d7ce8c1a952199787d52a0575e215f0a9292cc7991"
		oem16     = "7ed81f42e710baabd35bb12fae98604c53a529ea4f928ba29afa2c35065b751c"
		almost16  = "ecd3f4f279d21194e06a44be4ea1bfef6b394b3d416d318620d1773d88b75260"
		untangled = "0476d785fca07c3a2d9d9abdd2eef1d074ba5bd3202286eb6e59656b4727d03d"
	)
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"fig1", Request{Network: "n=4: [1,3][2,4][1,2][3,4]"}, fig1},
		{"odd-even-merge-16", Request{Network: oem.Format()}, oem16},
		{"layer-reversed-odd-even-merge-16", Request{Network: layerReversed(oem).Format()}, oem16},
		{"almost-sorter-16", Request{Network: almost.Format()}, almost16},
		{"layer-reversed-almost-sorter-16", Request{Network: layerReversed(almost).Format()}, almost16},
		// Min-to-2/max-to-1 and min-to-4/max-to-3 swap two lane pairs,
		// and the next two comparators swap them back: the circuit
		// untangles to [1,2][3,4][1,2][3,4][1,3][2,4][2,3] with the
		// identity relabeling.
		{"comparator-form", Request{Lines: 4, Comparators: [][2]int{{2, 1}, {4, 3}, {1, 2}, {3, 4}, {1, 3}, {2, 4}, {2, 3}}}, untangled},
	}
	sess := NewSession(WithWorkers(1), WithMaxLines(16))
	defer sess.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if key, ok := tc.req.ShardKey(); !ok || key != tc.want {
				t.Errorf("ShardKey = %q, %v; want %q", key, ok, tc.want)
			}
			if tc.req.Network != "" {
				if got := canon.DigestString(network.MustParse(tc.req.Network)); got != tc.want {
					t.Errorf("canon.DigestString = %q, want %q", got, tc.want)
				}
			}
			v, err := sess.Do(context.Background(), tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if v.Digest != tc.want {
				t.Errorf("verdict digest = %q, want %q", v.Digest, tc.want)
			}
			if strings.HasPrefix(tc.name, "almost-sorter") && (v.Check.Holds || v.Check.Counterexample != sigma.String()) {
				t.Errorf("H_σ verdict %+v, want a failure on σ = %s", v.Check, sigma)
			}
		})
	}
}

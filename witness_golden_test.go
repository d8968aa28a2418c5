package sortnets

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/search"
)

var updateWitnesses = flag.Bool("update", false, "rewrite testdata/witness.golden")

// witnessNet is one seeded circuit of the witness golden.
type witnessNet struct {
	name string
	w    *network.Network
}

// witnessNetworks draws, for width n, two holding sorters behind a
// random prefix, two random networks and two Lemma 2.1 almost-sorters
// H_σ for random unsorted σ.
func witnessNetworks(n int, rng *rand.Rand) []witnessNet {
	var out []witnessNet
	for i := 0; i < 2; i++ {
		w := network.Random(n, 1+rng.Intn(n), rng).Append(gen.Sorter(n))
		out = append(out, witnessNet{fmt.Sprintf("prefixed-sorter#%d", i), w})
	}
	for i := 0; i < 2; i++ {
		out = append(out, witnessNet{fmt.Sprintf("random#%d", i), network.Random(n, 2*n+rng.Intn(n), rng)})
	}
	for i := 0; i < 2; i++ {
		var sigma bitvec.Vec
		for {
			sigma = bitvec.New(n, rng.Uint64()&(uint64(1)<<uint(n)-1))
			if !sigma.IsSorted() {
				break
			}
		}
		out = append(out, witnessNet{fmt.Sprintf("almost-sorter#%d(%s)", i, sigma), core.MustAlmostSorter(sigma)})
	}
	return out
}

// witnessRequests is the seeded request list: per network, faults and
// minset (greedy at n = 4..10, exact at n = 4..8) judged by-property
// as a sorter and by-golden as a (2,n)-selector and, at even n, as a
// merger.
func witnessRequests() (labels []string, reqs []Request) {
	rng := rand.New(rand.NewSource(23))
	type judged struct {
		prop, mode string
		k          int
	}
	for n := 4; n <= 10; n++ {
		judges := []judged{{"sorter", "by-property", 0}, {"selector", "by-golden", 2}}
		if n%2 == 0 {
			judges = append(judges, judged{"merger", "by-golden", 0})
		}
		for _, net := range witnessNetworks(n, rng) {
			text := net.w.Format()
			for _, j := range judges {
				add := func(op string, exact bool) {
					labels = append(labels, fmt.Sprintf("n=%d %s %s %s/%s exact=%v", n, net.name, op, j.prop, j.mode, exact))
					reqs = append(reqs, Request{Op: op, Network: text, Property: j.prop, K: j.k, Mode: j.mode, Exact: exact})
				}
				add(OpFaults, false)
				add(OpMinset, false)
				if n <= 8 {
					add(OpMinset, true)
				}
			}
		}
	}
	return labels, reqs
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// witnessLines computes one "label hash" line per pinned result: the
// FNV-64a of each seeded Session.Do verdict's wire bytes, then of the
// exact minimum test sets search.MinimumTestSet and
// search.MinimumPermTestSet return.
func witnessLines(t *testing.T) []string {
	t.Helper()
	sess := NewSession(WithWorkers(1))
	defer sess.Close()
	ctx := context.Background()
	labels, reqs := witnessRequests()
	var lines []string
	for i, req := range reqs {
		v, err := sess.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
		lines = append(lines, labels[i]+" "+fnvHex(AppendVerdict(nil, v)))
	}
	type acc struct {
		name string
		bin  search.Acceptance
		perm search.PermAcceptance
	}
	accs := []acc{
		{"sorter", search.SorterAccepts, search.PermSorterAccepts},
		{"selector2", search.SelectorAccepts(2), search.PermSelectorAccepts(2)},
		{"merger", search.MergerAccepts, search.PermMergerAccepts},
	}
	heights := func(n int) []int {
		if n == 3 {
			return []int{1, 2}
		}
		return []int{1, 2, n - 1}
	}
	for n := 3; n <= 5; n++ {
		for _, h := range heights(n) {
			for _, a := range accs {
				if a.name == "merger" && n%2 != 0 {
					continue
				}
				res, err := search.MinimumTestSet(n, h, a.bin, 0)
				if err != nil {
					t.Fatal(err)
				}
				body := fmt.Sprintf("%s tests=%v forced=%d", res, res.Tests, res.ForcedSize)
				lines = append(lines, fmt.Sprintf("MinimumTestSet n=%d h=%d %s %s", n, h, a.name, fnvHex([]byte(body))))
			}
		}
	}
	for n := 3; n <= 4; n++ {
		for _, h := range heights(n) {
			for _, a := range accs {
				if a.name == "merger" && n%2 != 0 {
					continue
				}
				res, err := search.MinimumPermTestSet(n, h, a.perm, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				body := fmt.Sprintf("%s tests=%v", res, res.Tests)
				lines = append(lines, fmt.Sprintf("MinimumPermTestSet n=%d h=%d %s %s", n, h, a.name, fnvHex([]byte(body))))
			}
		}
	}
	return lines
}

// TestWitnessGolden pins the witnesses the fault and search paths
// return — which tests a minimum set names, not only how many — to
// testdata/witness.golden, so a change to the detection matrix or the
// hitting-set reduction that picks a different equal-size witness
// fails here. Rewrite the golden with go test . -run TestWitnessGolden
// -update only for an intended change of witness.
func TestWitnessGolden(t *testing.T) {
	got := witnessLines(t)
	path := filepath.Join("testdata", "witness.golden")
	if *updateWitnesses {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test . -run TestWitnessGolden -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d witness lines, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("witness changed:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d witnesses differ from the golden", bad, len(got))
	}
}

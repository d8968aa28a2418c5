package verify

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

// TestVerdictPermsBatchAgreesWithScalar cross-checks the block
// engine's permutation verdicts (threshold lanes as a line source)
// against the scalar ApplyInts loop on 480 networks of 2..17 lines —
// widths where n−1 divides 64 and where it does not, families longer
// than one 256-lane block — for all three properties: whole results,
// so Holds, TestsRun, the first failing permutation and its output.
// Random networks fail early; sorters with a random prefix hold, and
// with one comparator dropped, or as Lemma 2.1 almost-sorters, fail
// late.
func TestVerdictPermsBatchAgreesWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	holds, fails := map[string]int{}, map[string]int{}
	for trial := 0; trial < 480; trial++ {
		n := 2 + trial%16
		var w *network.Network
		switch trial / 16 % 4 {
		case 0:
			w = network.Random(n, rng.Intn(4*n), rng)
		case 1:
			w = network.Random(n, rng.Intn(n), rng).Append(gen.Sorter(n))
		case 2:
			w = network.Random(n, rng.Intn(n), rng).Append(gen.Sorter(n))
			if len(w.Comps) > 0 {
				i := rng.Intn(len(w.Comps))
				w.Comps = append(w.Comps[:i:i], w.Comps[i+1:]...)
			}
		default:
			var err error
			sigma := bitvec.New(n, rng.Uint64()&(1<<uint(n)-1))
			if w, err = core.AlmostSorter(sigma); err != nil {
				w = gen.Sorter(n) // σ was sorted
			}
		}
		props := []Property{Sorter{N: n}, Selector{N: n, K: 1 + rng.Intn(n)}}
		if n%2 == 0 {
			props = append(props, Merger{N: n})
		}
		for _, p := range props {
			got := VerdictPerms(w, p)
			want, err := verdictPermsScalar(context.Background(), eval.Compile(w), p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s:\nengine %+v\nscalar %+v", p.Name(), w, got, want)
			}
			kind := reflect.TypeOf(p).Name()
			if got.Holds {
				holds[kind]++
			} else {
				fails[kind]++
			}
		}
	}
	for _, kind := range []string{"Sorter", "Selector", "Merger"} {
		if holds[kind] == 0 || fails[kind] == 0 {
			t.Errorf("%s: %d holding and %d failing verdicts, want both", kind, holds[kind], fails[kind])
		}
	}
}

// TestVerdictPermsBatchCorrectSorters makes sure real sorters pass on
// the batched path across widths, including the lane-packing edge
// cases (n−1 dividing 64 or not).
func TestVerdictPermsBatchCorrectSorters(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 9, 12, 16, 17} {
		w := gen.Sorter(n)
		r := VerdictPerms(w, Sorter{N: n})
		if !r.Holds {
			t.Errorf("n=%d: sorter rejected on %s -> %v", n, r.Counterexample, r.Output)
		}
		if r.TestsRun != len(Sorter{N: n}.PermTests()) {
			t.Errorf("n=%d: TestsRun %d, want full family", n, r.TestsRun)
		}
	}
}

// TestHalvesSorted: every τᵢ of the merger permutation family has
// sorted halves, so all its thresholds lie inside the merger contract.
// That is why the permutation merger verdict judges the whole family
// with no contract filter.
func TestHalvesSorted(t *testing.T) {
	for n := 2; n <= 64; n += 2 {
		for i, p := range core.MergerPermTests(n) {
			if !sort.IntsAreSorted(p[:n/2]) || !sort.IntsAreSorted(p[n/2:]) {
				t.Errorf("n=%d: τ%d = %s has an unsorted half", n, i, p)
			}
		}
	}
}

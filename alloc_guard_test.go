package sortnets

import (
	"context"
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/verify"
)

// TestDoBatchCacheHitAllocs guards the Session's batched cache-hit
// path: once every verdict in a batch is cached, DoBatch must cost a
// small constant number of allocations per request (key building,
// entry bookkeeping) — not a parse, compile or encode per entry. The
// bound is ~4x the measured value (≈2.2/request on go1.24), loose
// enough for scheduler noise, tight enough to catch a regression to
// per-request resolution.
func TestDoBatchCacheHitAllocs(t *testing.T) {
	sess := NewSession(WithWorkers(1))
	defer sess.Close()

	const batch = 64
	rng := rand.New(rand.NewSource(5))
	reqs := make([]Request, batch)
	for i := range reqs {
		reqs[i] = Request{Network: network.Random(8, 15+i%6, rng).Format()}
	}
	ctx := context.Background()
	// Warm: every verdict and resolution enters its cache.
	if _, err := sess.DoBatch(ctx, reqs); err != nil {
		t.Fatalf("warm batch: %v", err)
	}

	perBatch := testing.AllocsPerRun(100, func() {
		if _, err := sess.DoBatch(ctx, reqs); err != nil {
			t.Fatalf("hit batch: %v", err)
		}
	})
	perReq := perBatch / batch
	t.Logf("cache-hit DoBatch: %.1f allocs per %d-request batch, %.2f per request", perBatch, batch, perReq)
	if perReq > 8 {
		t.Fatalf("cache-hit DoBatch allocates %.2f per request (%.1f per batch); the batched hit path has regressed", perReq, perBatch)
	}
}

// TestResolveAllocs guards request resolution — parse, canonicalize
// and digest, the work every verdict pays before a cache can answer
// it — at a small constant number of allocations whatever the
// comparator count: a 16-line Lemma 2.1 almost-sorter H_σ (1405
// comparators) and a 16-line odd-even merge sorter (63) must cost
// the same bounded handful. Each measured 6 on go1.24 (two for the
// parsed network, three for the canonical one, one for the hex
// digest); the bound of twice that leaves room for toolchain drift
// but not for a per-comparator or per-layer allocation.
func TestResolveAllocs(t *testing.T) {
	h, err := core.AlmostSorter(bitvec.New(16, 0x5a3c))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		w    *network.Network
	}{
		{"almost-sorter-16", h},
		{"odd-even-merge-16", gen.OddEvenMergeSort(16)},
	} {
		req := Request{Network: tc.w.Format()}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := req.resolve(16); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		t.Logf("%s (%d comparators): %.0f allocs per resolve", tc.name, tc.w.Size(), allocs)
		if allocs > 12 {
			t.Errorf("%s: resolve costs %.0f allocs, want at most 12 whatever the comparator count", tc.name, allocs)
		}
	}
}

// TestWideVerdictAllocs guards the wide (n > 64) certification path:
// the 256-line Batcher merger's 16,384 tests stream as rows into the
// pooled block engine, so a one-worker verdict allocates a fixed
// handful (the stream, the judge, the engine; 4 on go1.24) and nothing
// per vector. The bound is one allocation per block: 66 blocks for
// 16,384 tests on the 64 → 128 → 256-lane ramp.
func TestWideVerdictAllocs(t *testing.T) {
	prog := eval.Compile(gen.HalfMerger(256))
	p := verify.Merger{N: 256}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if r, err := verify.VerdictWideProgramCtx(ctx, prog, p, 1); err != nil || !r.Holds || r.TestsRun != 16384 {
			t.Fatalf("merger verdict %s, %v", r, err)
		}
	})
	t.Logf("wide merger verdict (n = 256, 16384 tests): %.0f allocs", allocs)
	if allocs > 66 {
		t.Errorf("wide merger verdict costs %.0f allocs, want at most one per block (66)", allocs)
	}
}

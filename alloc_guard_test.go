package sortnets

import (
	"context"
	"math/rand"
	"runtime"
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

// TestWideVerdictAllocs guards the block engine's verdict paths: the
// 256-line Batcher merger's 16,384 tests stream as rows into the
// pooled block engine (the wide, n > 64, path), the 16-line odd-even
// merge sorter's 65,519 tests load as a span, and so do those of a
// RunManyCtx pass over five 16-line sorters (the batch path). The
// sorter's 39,194 (8,16)-selector tests and the 64-line merger's
// 1,024 tests are row sources that fill a block of rows per call. The
// 12-line sorter's 923 permutation tests are a line source that reads
// the memoized family in place. A verdict allocates a fixed handful
// (the stream, the judge, the engine; the pass's verdict and active
// slices) and nothing per vector, per block or per permutation: on
// go1.24 the wide merger costs 4, the sorter 3, the selector 4, the
// 64-line merger 3, the permutation verdict 2 and the pass 4. Each
// bound is its measured count plus 2, so a block that is checked out
// of the pool and never put back (4 more allocations per verdict), or
// a copy of the permutation family (2 more), fails the guard.
func TestWideVerdictAllocs(t *testing.T) {
	ctx := context.Background()
	merger := eval.Compile(gen.HalfMerger(256))
	sorter := eval.Compile(gen.OddEvenMergeSort(16))
	merger64 := eval.Compile(gen.HalfMerger(64))
	sorter12 := eval.Compile(gen.OddEvenMergeSort(12))
	rng := rand.New(rand.NewSource(20))
	fleet := make([]*eval.Program, 5)
	for i := range fleet {
		fleet[i] = eval.Compile(network.Random(16, 4+i, rng).Append(gen.OddEvenMergeSort(16)))
	}
	for _, tc := range []struct {
		name  string
		tests int
		bound float64
		run   func() (holds bool, tests int, err error)
	}{
		{"wide merger verdict (n = 256)", 16384, 6, func() (bool, int, error) {
			r, err := verify.VerdictWideProgramCtx(ctx, merger, verify.Merger{N: 256}, 1)
			return r.Holds, r.TestsRun, err
		}},
		{"sorter verdict (n = 16)", 1<<16 - 17, 5, func() (bool, int, error) {
			r, err := verify.VerdictProgramCtx(ctx, sorter, verify.Sorter{N: 16})
			return r.Holds, r.TestsRun, err
		}},
		{"selector verdict (n = 16, k = 8)", 39194, 6, func() (bool, int, error) {
			r, err := verify.VerdictProgramCtx(ctx, sorter, verify.Selector{N: 16, K: 8})
			return r.Holds, r.TestsRun, err
		}},
		{"merger verdict (n = 64)", 1024, 5, func() (bool, int, error) {
			r, err := verify.VerdictProgramCtx(ctx, merger64, verify.Merger{N: 64})
			return r.Holds, r.TestsRun, err
		}},
		{"sorter permutation verdict (n = 12)", 923, 4, func() (bool, int, error) {
			r, err := verify.VerdictPermsCtx(ctx, sorter12, verify.Sorter{N: 12})
			return r.Holds, r.TestsRun, err
		}},
		{"sorter group pass (n = 16, 5 programs)", 1<<16 - 17, 6, func() (bool, int, error) {
			vs, err := eval.RunManyCtx(ctx, fleet, core.SorterBinaryTests(16), verify.JudgeFor(verify.Sorter{N: 16}))
			if err != nil {
				return false, 0, err
			}
			for _, v := range vs[1:] {
				if v != vs[0] {
					return false, v.TestsRun, nil
				}
			}
			return vs[0].Holds, vs[0].TestsRun, nil
		}},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if holds, tests, err := tc.run(); err != nil || !holds || tests != tc.tests {
				t.Fatalf("%s: holds %v after %d tests, %v", tc.name, holds, tests, err)
			}
		})
		t.Logf("%s, %d tests: %.0f allocs", tc.name, tc.tests, allocs)
		if allocs > tc.bound {
			t.Errorf("%s costs %.0f allocs, want at most %.0f", tc.name, allocs, tc.bound)
		}
	}
}

// TestDoCacheHitAllocs guards the single-shot hit path, which is the
// whole of a hot serving loop: once its verdict is cached, a Do of a
// verify, faults or minset request, and a Lookup fill probe, must cost
// a fixed handful of allocations, never a resolve, a compile or a
// compute closure. Each bound is the count measured while the Session
// still kept compiled programs (5 per Do hit, 2 per Lookup); each
// measures 2 on go1.24 now.
func TestDoCacheHitAllocs(t *testing.T) {
	sess := NewSession(WithWorkers(1))
	defer sess.Close()
	ctx := context.Background()
	text := network.Random(8, 20, rand.New(rand.NewSource(7))).Format()
	for _, tc := range []struct {
		name  string
		req   Request
		bound float64
	}{
		{"verify", Request{Network: text}, 5},
		{"faults", Request{Op: OpFaults, Network: text}, 5},
		{"minset", Request{Op: OpMinset, Network: text, Exact: true}, 5},
	} {
		if _, err := sess.Do(ctx, tc.req); err != nil {
			t.Fatalf("%s: warm: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if v, err := sess.Do(ctx, tc.req); err != nil || v.Source != "hit" {
				t.Fatalf("%s: %+v, %v, want a cache hit", tc.name, v, err)
			}
		})
		t.Logf("%s Do hit: %.0f allocs", tc.name, allocs)
		if allocs > tc.bound {
			t.Errorf("%s Do hit costs %.0f allocs, want at most %.0f", tc.name, allocs, tc.bound)
		}
	}
	probe := Request{Network: text}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := sess.Lookup(probe); !ok {
			t.Fatal("Lookup missed a cached verdict")
		}
	})
	t.Logf("Lookup hit: %.0f allocs", allocs)
	if allocs > 2 {
		t.Errorf("Lookup hit costs %.0f allocs, want at most 2", allocs)
	}
}

// TestDoRetainsDigestsNotNetworks guards what a cached verdict keeps
// alive beyond its request text: the verdict, its key and the resolve
// memo's digest, not the canonical network or a compiled program. 256
// distinct 16-line Lemma 2.1 almost-sorters H_σ (1,405 comparators
// each, 22.5 KB as a network and more as a program) go through Do
// while the test holds their texts; the heap may then grow by at most
// 4 KB per verdict (0.55 KB measured on go1.24, against 59 KB when
// the Session kept both).
func TestDoRetainsDigestsNotNetworks(t *testing.T) {
	const count = 256
	reqs := make([]Request, 0, count)
	for x := uint64(0x5a3c); len(reqs) < count; x += 0x9e3 {
		h, err := core.AlmostSorter(bitvec.New(16, x&0xffff))
		if err != nil {
			continue
		}
		reqs = append(reqs, Request{Network: h.Format()})
	}
	sess := NewSession(WithWorkers(1))
	defer sess.Close()
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		v, err := sess.Do(ctx, req)
		if err != nil || v.Check.Holds {
			t.Fatalf("H_σ verdict %+v, %v, want a failing verdict", v, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(reqs)
	if st := sess.Stats(); st.Cache.Entries != count {
		t.Fatalf("%d cached verdicts, want %d distinct", st.Cache.Entries, count)
	}
	perEntry := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / count
	t.Logf("%d cached H_σ verdicts retain %d bytes each", count, perEntry)
	if perEntry > 4<<10 {
		t.Errorf("each cached verdict retains %d bytes, want at most %d", perEntry, 4<<10)
	}
}

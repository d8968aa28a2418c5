package search

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sortnets/internal/bitset"
)

// Cancellation contract of the exact-search pipeline: the closure
// BFS, the failure-family build and the hitting-set branch and bound
// all observe a cancelled context promptly, with no worker left
// behind.

func searchCancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func searchCheckNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMinimumTestSetCtxCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err := MinimumTestSetCtx(searchCancelledCtx(), 6, 5, SorterAccepts, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("cancelled pipeline took %v", d)
	}
	searchCheckNoLeak(t, before)
}

func TestClosureBFSDeadline(t *testing.T) {
	// The unrestricted n=6 closure takes seconds; a 5ms deadline must
	// stop the BFS mid-enumeration.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := binaryClosureStore(ctx, 6, Comparators(6, 5), 0)
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want a context error, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("deadline honored only after %v", d)
	}
}

// hardFamily builds a random hitting-set instance messy enough that
// the solver must branch (greedy rarely meets the disjoint bound).
func hardFamily(rng *rand.Rand, universe, sets, size int) []*bitset.Set {
	fam := make([]*bitset.Set, sets)
	for i := range fam {
		s := bitset.New(universe)
		for s.Count() < size {
			s.Add(rng.Intn(universe))
		}
		fam[i] = s
	}
	return fam
}

func TestHittingSolverCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fam := hardFamily(rng, 96, 220, 3)
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		start := time.Now()
		_, err := MinHittingSetBitsCtx(searchCancelledCtx(), 96, fam, 0, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("workers=%d: cancelled solve took %v", workers, d)
		}
		searchCheckNoLeak(t, before)
	}
}

func TestMinimumPermTestSetCtxCancelled(t *testing.T) {
	_, err := MinimumPermTestSetCtx(searchCancelledCtx(), 5, 4, PermSorterAccepts, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCtxBackgroundEquivalence: the ctx pipeline with a Background
// context must reproduce the historical results exactly.
func TestCtxBackgroundEquivalence(t *testing.T) {
	want, err := MinimumTestSetOpts(4, 3, SorterAccepts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MinimumTestSetCtx(context.Background(), 4, 3, SorterAccepts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != want.Size || got.Behaviors != want.Behaviors || got.BadSets != want.BadSets {
		t.Fatalf("ctx pipeline diverges: %+v vs %+v", got, want)
	}
}

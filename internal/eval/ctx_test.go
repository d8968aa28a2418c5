package eval

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"sortnets/internal/bitvec"
	"sortnets/internal/gen"
	"sortnets/internal/widevec"
)

// Cancellation contract of every engine path: an already-cancelled
// context returns promptly with the context's error, a mid-flight
// deadline stops the sweep within a block, and no pool goroutine
// outlives the call.

// checkNoLeak retries until the goroutine count returns to the
// baseline (pool teardown is synchronous, but the runtime may lag a
// tick on reusing exit records).
func checkNoLeak(t *testing.T, before int) {
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

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestRunCtxCancelledBatch(t *testing.T) {
	e := New(Compile(gen.OddEvenMergeSort(16)), 4)
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err := e.RunCtx(cancelledCtx(), bitvec.All(16), SortedJudge())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("cancelled run took %v", d)
	}
	checkNoLeak(t, before)
}

func TestRunCtxDeadlineMidStream(t *testing.T) {
	// 2²⁶ vectors through ~500 ops: seconds of work without the
	// deadline.
	e := New(Compile(gen.OddEvenMergeSort(26)), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err := e.RunCtx(ctx, bitvec.All(26), SortedJudge())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("deadline honored only after %v", d)
	}
	checkNoLeak(t, before)
}

func TestRunUniverseCtxCancelled(t *testing.T) {
	for _, workers := range []int{1, 0, 4} {
		e := New(Compile(gen.OddEvenMergeSort(24)), workers)
		before := runtime.NumGoroutine()
		start := time.Now()
		_, err := e.RunUniverseCtx(cancelledCtx(), SortedJudge())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Errorf("workers=%d: cancelled universe sweep took %v", workers, d)
		}
		checkNoLeak(t, before)
	}
}

// endlessWide streams the all-zero wide vector forever: only
// cancellation can end the run.
type endlessWide struct{ n int }

func (it *endlessWide) Next() (widevec.Vec, bool) { return widevec.New(it.n), true }

func TestRunWideCtxCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(Compile(gen.HalfMerger(128)), workers)
		before := runtime.NumGoroutine()
		start := time.Now()
		_, err := e.RunWideCtx(cancelledCtx(), &endlessWide{n: 128},
			func(in, out widevec.Vec) bool { return true })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Errorf("workers=%d: cancelled wide run took %v", workers, d)
		}
		checkNoLeak(t, before)
	}
}

func TestSweepCtxCancelled(t *testing.T) {
	progs := []*Program{Compile(gen.OddEvenMergeSort(16))}
	n, err := SweepCtx(cancelledCtx(), progs, bitvec.All(16), SortedJudge(), func(int, int, uint64) {})
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("want (0, context.Canceled), got (%d, %v)", n, err)
	}
}

func TestForEachUntilCtxCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	hit, err := ForEachUntilCtx(cancelledCtx(), 1<<20, 4, func(int) bool { return false })
	if hit != -1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("want (-1, context.Canceled), got (%d, %v)", hit, err)
	}
	checkNoLeak(t, before)

	// A hit found before cancellation is observed still wins.
	ctx := context.Background()
	hit, err = ForEachUntilCtx(ctx, 100, 1, func(i int) bool { return i == 7 })
	if hit != 7 || err != nil {
		t.Fatalf("want (7, nil), got (%d, %v)", hit, err)
	}
}

// TestRunCtxBackgroundEquivalence: a Background context must change
// nothing — same verdict as the context-free API.
func TestRunCtxBackgroundEquivalence(t *testing.T) {
	w := gen.OddEvenMergeSort(8)
	e := New(Compile(w), 1)
	got, err := e.RunCtx(context.Background(), bitvec.All(8), SortedJudge())
	if err != nil {
		t.Fatal(err)
	}
	want := New(Compile(w), 1).Run(bitvec.All(8), SortedJudge())
	if got != want {
		t.Fatalf("ctx path diverges: %+v vs %+v", got, want)
	}
}

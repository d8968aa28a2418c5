package faults

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sortnets/internal/bitvec"
	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/gen"
)

// Cancellation contract of the fault pass: an already-cancelled
// context returns the context's error with a zero Report or a nil
// Matrix, a cancellation raised mid-pass stops every chunk at its next
// block boundary, and no pool goroutine outlives the call.

// countdownCtx reports cancellation from its (k+1)-th Err() call on,
// counting every call, so a test can cancel a pass at any check.
type countdownCtx struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.k {
		return context.Canceled
	}
	return nil
}

// cancelled reports whether the context has reported cancellation.
func (c *countdownCtx) cancelled() bool { return c.calls.Load() > c.k }

// countingStream wraps a test stream and counts the vectors drawn
// after ctx first reported cancellation.
type countingStream struct {
	it   bitvec.Iterator
	ctx  *countdownCtx
	late *atomic.Int64
}

func (s *countingStream) Next() (bitvec.Vec, bool) {
	if s.ctx.cancelled() {
		s.late.Add(1)
	}
	return s.it.Next()
}

// waitGoroutines waits until the goroutine count is back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMeasureAndMatrixCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := gen.Sorter(10)
	fs := Enumerate(w)
	tests := func() bitvec.Iterator { return core.SorterBinaryTests(10) }
	before := runtime.NumGoroutine()
	for _, mode := range []DetectMode{ByProperty, ByGolden} {
		rep, err := MeasureCtx(ctx, w, eval.Compile(w), fs, tests, mode)
		if !errors.Is(err, context.Canceled) || rep != (Report{}) {
			t.Fatalf("%s: MeasureCtx = (%+v, %v), want zero report and context.Canceled", mode, rep, err)
		}
		m, err := DetectionMatrixCtx(ctx, w, eval.Compile(w), fs, tests, mode)
		if !errors.Is(err, context.Canceled) || m != nil {
			t.Fatalf("%s: DetectionMatrixCtx = (%v, %v), want nil matrix and context.Canceled", mode, m, err)
		}
	}
	waitGoroutines(t, before)
}

// paddedTests is the n-line sorter test set behind blocks of all-zero
// vectors: those detect only stuck-at-1 faults, so the pass that
// judges the other faults against the stream runs through all of them.
func paddedTests(n, blocks int) []bitvec.Vec {
	pad := make([]bitvec.Vec, blocks*eval.KernelLanes())
	for i := range pad {
		pad[i] = bitvec.AllZeros(n)
	}
	return append(pad, bitvec.Collect(core.SorterBinaryTests(n))...)
}

// TestFaultPassCancelStopsWithinOneBlock cancels the pass at each of its
// Err() checks in turn, until a run completes. At n = 12 the 2ⁿ
// universe spans 16 blocks, and the test stream 31. Once the context
// reports cancellation, each chunk observes it at its next block
// boundary and its pool worker once more before claiming work, and
// the pool checks once at the end: so at most 2·chunks + 1 further
// checks, at most one block of the test stream drawn per chunk, and a
// zero result with the context's error.
func TestFaultPassCancelStopsWithinOneBlock(t *testing.T) {
	const n = 12
	w := gen.Sorter(n)
	fs := Enumerate(w)
	golden := eval.Compile(w)
	vecs := paddedTests(n, 15)
	chunks := int64(min(runtime.NumCPU(), len(fs)))
	maxLate := 2*chunks + 1
	wantRep := Measure(w, fs, func() bitvec.Iterator { return bitvec.Slice(vecs) }, ByProperty)
	wantMatrix := DetectionMatrix(w, fs, func() bitvec.Iterator { return bitvec.Slice(vecs) }, ByProperty).Report()
	if wantMatrix != wantRep {
		t.Fatalf("matrix report %+v, Measure %+v", wantMatrix, wantRep)
	}
	for k, done := int64(0), false; !done; k++ {
		if k > 10_000 {
			t.Fatal("the pass never completed")
		}
		before := runtime.NumGoroutine()

		mctx := &countdownCtx{Context: context.Background(), k: k}
		var late atomic.Int64
		tests := func() bitvec.Iterator {
			return &countingStream{it: bitvec.Slice(vecs), ctx: mctx, late: &late}
		}
		rep, err := MeasureCtx(mctx, w, golden, fs, tests, ByProperty)
		done = err == nil
		switch {
		case err == nil && rep != wantRep:
			t.Fatalf("k=%d: uncancelled MeasureCtx %+v, want %+v", k, rep, wantRep)
		case err != nil && (!errors.Is(err, context.Canceled) || rep != (Report{})):
			t.Fatalf("k=%d: MeasureCtx = (%+v, %v), want zero report and context.Canceled", k, rep, err)
		}
		if extra := mctx.calls.Load() - k - 1; extra > maxLate {
			t.Errorf("k=%d: MeasureCtx made %d checks after cancellation, want ≤ %d", k, extra, maxLate)
		}
		if got := late.Load(); got > chunks*int64(eval.KernelLanes()) {
			t.Errorf("k=%d: MeasureCtx drew %d test vectors after cancellation, want ≤ one block per chunk", k, got)
		}

		xctx := &countdownCtx{Context: context.Background(), k: k}
		m, err := DetectionMatrixCtx(xctx, w, golden, fs, func() bitvec.Iterator { return bitvec.Slice(vecs) }, ByProperty)
		done = done && err == nil
		switch {
		case err == nil && m.Report() != wantRep:
			t.Fatalf("k=%d: uncancelled DetectionMatrixCtx %+v, want %+v", k, m.Report(), wantRep)
		case err != nil && (!errors.Is(err, context.Canceled) || m != nil):
			t.Fatalf("k=%d: DetectionMatrixCtx = (%v, %v), want nil matrix and context.Canceled", k, m, err)
		}
		if extra := xctx.calls.Load() - k - 1; extra > maxLate {
			t.Errorf("k=%d: DetectionMatrixCtx made %d checks after cancellation, want ≤ %d", k, extra, maxLate)
		}
		waitGoroutines(t, before)
	}
}

package eval

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request under the repository-wide
// rule — workers ≤ 0 means "automatic" — for plain worker pools,
// where automatic is runtime.GOMAXPROCS(0), the number of goroutines
// the runtime runs at once. (The streaming Engine applies the same
// rule with a work threshold: automatic means sequential below it,
// GOMAXPROCS workers above.) Every pooled client in the repository
// routes through this so 0 means the same thing everywhere.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// ForEachUntil runs fn(i) for i in [0, n) on a pool of the given size
// (≤ 0 means automatic = GOMAXPROCS), stopping early once some call
// returns true. It returns the SMALLEST index for which fn returned
// true, or -1 if none did — deterministically, even under the pool:
// indices are claimed in order, in-flight lower indices always
// finish, and the minimum hit wins. fn must be safe for concurrent
// calls.
func ForEachUntil(n, workers int, fn func(i int) bool) int {
	hit, _ := ForEachUntilCtx(context.Background(), n, workers, fn)
	return hit
}

// ForEachUntilCtx is ForEachUntil under a context: workers stop
// claiming new indices once the context is cancelled. When a hit was
// found before cancellation was observed it is returned with a nil
// error; otherwise a cancelled run returns (-1, ctx.Err()).
//
//sortnets:ctxloop
func ForEachUntilCtx(ctx context.Context, n, workers int, fn func(i int) bool) (int, error) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return -1, err
			}
			if fn(i) {
				return i, nil
			}
		}
		// Re-check after the last call: a cancellation that landed
		// DURING fn(n-1) may have made that call bail early with a
		// partial (wrong) outcome — "completed without a hit" must
		// not be reported for an aborted sweep. Context errors are
		// sticky, so this also covers every earlier call that
		// swallowed its own ctx error.
		if err := ctx.Err(); err != nil {
			return -1, err
		}
		return -1, nil
	}
	var next atomic.Int64
	var hit atomic.Int64
	hit.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := next.Add(1) - 1
				if i >= int64(n) || i >= hit.Load() {
					return
				}
				if fn(int(i)) {
					for {
						cur := hit.Load()
						if i >= cur || hit.CompareAndSwap(cur, i) {
							break
						}
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	if h := hit.Load(); h < int64(n) {
		return int(h), nil
	}
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	return -1, nil
}

// ForEach runs fn(i) for every i in [0, n) on a pool of the given
// size (≤ 0 means automatic = GOMAXPROCS). It always completes all n
// calls; use it for aggregation sweeps with no early exit.
func ForEach(n, workers int, fn func(i int)) {
	ForEachUntil(n, workers, func(i int) bool { fn(i); return false })
}

// ForEachCtx is ForEach under a context: a cancelled context stops
// the sweep early (some calls skipped) and returns ctx.Err() — the
// partial aggregation must then be discarded.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	_, err := ForEachUntilCtx(ctx, n, workers, func(i int) bool { fn(i); return false })
	return err
}

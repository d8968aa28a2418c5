package verify

import (
	"context"
	"fmt"

	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/network"
	"sortnets/internal/widevec"
)

// Context-aware verdicts. Every engine path in this package is written
// once, as a *Ctx function that accepts a context.Context and
// propagates cancellation into the engine loops, where it is checked
// once per block (never per vector). A cancelled run returns the
// context's error and a zero result; Verdict, GroundTruth and
// VerdictPerms are calls of their *Ctx forms under
// context.Background().

// VerdictCtx is Verdict under a context, with an explicit worker
// count (0 = automatic, 1 = sequential stream-order, k > 1 = k
// engine workers).
func VerdictCtx(ctx context.Context, w *network.Network, p Property, workers int) (Result, error) {
	if workers < 0 {
		workers = 0
	}
	v, err := engineFor(w, p, workers).RunCtx(ctx, p.BinaryTests(), judgeFor(p))
	if err != nil {
		return Result{}, err
	}
	return fromVerdict(v), nil
}

// VerdictProgramCtx is VerdictCtx for an already-compiled program on
// one worker — the cache-aware entry point: a caller that verifies
// many properties of one circuit (or the same circuit across many
// requests, like the Session) compiles once and reuses the program.
// Tests run in stream order, so the counterexample is stable
// call-to-call.
func VerdictProgramCtx(ctx context.Context, prog *eval.Program, p Property) (Result, error) {
	if prog.N() != p.Lines() {
		panic(fmt.Sprintf("verify: program has %d lines, property wants %d", prog.N(), p.Lines()))
	}
	v, err := eval.New(prog, 1).RunCtx(ctx, p.BinaryTests(), judgeFor(p))
	if err != nil {
		return Result{}, err
	}
	return fromVerdict(v), nil
}

// GroundTruthCtx is GroundTruth under a context, with an explicit
// worker count (0 = automatic).
func GroundTruthCtx(ctx context.Context, w *network.Network, p Property, workers int) (Result, error) {
	if workers < 0 {
		workers = 0
	}
	return groundTruthEngineCtx(ctx, engineFor(w, p, workers), w.N, p)
}

// GroundTruthProgramCtx is GroundTruthCtx for an already-compiled
// program on one worker (see VerdictProgramCtx).
func GroundTruthProgramCtx(ctx context.Context, prog *eval.Program, p Property) (Result, error) {
	if prog.N() != p.Lines() {
		panic(fmt.Sprintf("verify: program has %d lines, property wants %d", prog.N(), p.Lines()))
	}
	return groundTruthEngineCtx(ctx, eval.New(prog, 1), prog.N(), p)
}

func groundTruthEngineCtx(ctx context.Context, e *eval.Engine, n int, p Property) (Result, error) {
	var v eval.Verdict
	var err error
	if wholesale(n, p) {
		v, err = e.RunUniverseCtx(ctx, judgeFor(p))
	} else {
		v, err = e.RunCtx(ctx, p.ExhaustiveBinary(), judgeFor(p))
	}
	if err != nil {
		return Result{}, err
	}
	return fromVerdict(v), nil
}

// VerdictPermsCtx is VerdictPerms under a context, checked between
// permutation batches (batch path) or between permutations (scalar
// fallback).
func VerdictPermsCtx(ctx context.Context, w *network.Network, p Property) (PermResult, error) {
	if w.N != p.Lines() {
		panic(fmt.Sprintf("verify: network has %d lines, property wants %d", w.N, p.Lines()))
	}
	if w.N-1 <= network.LanesPerWord && w.N > 1 {
		switch p.(type) {
		case Sorter, Selector, Merger:
			return verdictPermsBatch(ctx, w, p)
		}
	}
	return verdictPermsScalar(ctx, w, p)
}

// VerdictWideProgramCtx certifies a merger or selector property on an
// already-compiled program of any width with the paper's polynomial
// test set (n²/4 vectors for the merger, Σᵢ₌₀..k C(n,i) − k − 1 for the
// (k,n)-selector) — the regime beyond 64 lines where a zero-one sweep
// is physically impossible. workers: 0 = automatic, 1 = sequential,
// k > 1 = k engine workers. Any other property panics: only these two
// have polynomial families.
func VerdictWideProgramCtx(ctx context.Context, prog *eval.Program, p Property, workers int) (WideResult, error) {
	if prog.N() != p.Lines() {
		panic(fmt.Sprintf("verify: program has %d lines, property wants %d", prog.N(), p.Lines()))
	}
	var tests eval.WideIterator
	var accepts func(in, out widevec.Vec) bool
	switch q := p.(type) {
	case Merger:
		tests = core.MergerWideTests(q.N)
		accepts = func(in, out widevec.Vec) bool { return out.IsSorted() }
	case Selector:
		tests = core.SelectorWideTests(q.N, q.K)
		accepts = func(in, out widevec.Vec) bool { return selectsWide(in, out, q.K) }
	default:
		panic(fmt.Sprintf("verify: wide certification needs a merger or selector property, got %s", p.Name()))
	}
	if workers < 0 {
		workers = 0
	}
	v, err := eval.New(prog, workers).RunWideCtx(ctx, tests, accepts)
	if err != nil {
		return WideResult{}, err
	}
	return fromWideVerdict(v), nil
}

package verify

import (
	"context"
	"fmt"

	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/network"
	"sortnets/internal/widevec"
)

// Context-aware verdicts. Every engine path in this package has a
// *Ctx twin that accepts a context.Context and propagates
// cancellation into the engine loops, where it is checked once per
// block (never per vector). A cancelled run returns the
// context's error and a zero result; the legacy entry points are
// wrappers over context.Background().

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

// VerdictProgramCtx is VerdictProgram under a context.
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

// GroundTruthProgramCtx is GroundTruthProgram under a context.
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

// VerdictMergerWideProgramCtx certifies the (n/2,n/2)-merger property
// on an already-compiled program under a context (the Session's
// cache-aware wide path). workers: 0 = automatic, 1 = sequential.
func VerdictMergerWideProgramCtx(ctx context.Context, prog *eval.Program, workers int) (WideResult, error) {
	if workers < 0 {
		workers = 0
	}
	v, err := eval.New(prog, workers).RunWideCtx(ctx, core.MergerWideTests(prog.N()),
		func(in, out widevec.Vec) bool { return out.IsSorted() })
	if err != nil {
		return WideResult{}, err
	}
	return fromWideVerdict(v), nil
}

// VerdictSelectorWideProgramCtx certifies the (k,n)-selector property
// on an already-compiled program under a context.
func VerdictSelectorWideProgramCtx(ctx context.Context, prog *eval.Program, k, workers int) (WideResult, error) {
	if workers < 0 {
		workers = 0
	}
	v, err := eval.New(prog, workers).RunWideCtx(ctx, core.SelectorWideTests(prog.N(), k),
		func(in, out widevec.Vec) bool { return selectsWide(in, out, k) })
	if err != nil {
		return WideResult{}, err
	}
	return fromWideVerdict(v), nil
}

package verify

import (
	"context"
	"fmt"

	"sortnets/internal/core"
	"sortnets/internal/eval"
	"sortnets/internal/network"
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
// one worker: a caller that verifies many properties of one circuit
// compiles once and reuses the program. Tests run in stream order, so
// the counterexample is stable call-to-call.
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

// VerdictWideProgramCtx certifies a merger or selector property on an
// already-compiled program of any width with the paper's polynomial
// test set (n²/4 vectors for the merger, Σᵢ₌₀..k C(n,i) − k − 1 for the
// (k,n)-selector) — the regime beyond 64 lines where a zero-one sweep
// is physically impossible. The test set is the one every other
// verdict path runs, in the same order, staged as rows into the same
// block engine and word-parallel judges.
// workers: 0 = automatic, 1 = sequential, k > 1 = k engine workers.
// Any other property panics: only these two have polynomial families.
func VerdictWideProgramCtx(ctx context.Context, prog *eval.Program, p Property, workers int) (WideResult, error) {
	if prog.N() != p.Lines() {
		panic(fmt.Sprintf("verify: program has %d lines, property wants %d", prog.N(), p.Lines()))
	}
	var tests eval.RowSource
	switch q := p.(type) {
	case Merger:
		tests = core.MergerBinaryTests(q.N)
	case Selector:
		tests = core.SelectorBinaryTests(q.N, q.K)
	default:
		panic(fmt.Sprintf("verify: wide certification needs a merger or selector property, got %s", p.Name()))
	}
	v, err := eval.New(prog, workers).RunWideCtx(ctx, tests, judgeFor(p))
	if err != nil {
		return WideResult{}, err
	}
	return WideResult{Holds: v.Holds, TestsRun: v.TestsRun, Counterexample: v.In, Output: v.Out}, nil
}

package eval

import (
	"context"
	"fmt"

	"sortnets/internal/bitvec"
)

// The multi-program pass of the batch-first request model: when many
// programs of one width are judged against one stream — a fleet of
// candidate networks checked against one property — the shared work,
// getting the stream into the word layout, is identical for every
// program. RunMany does that work ONCE per block and feeds the block
// to every program, so k programs pay one load instead of k. (The
// fault variants of one circuit share more than the load; they run
// through the fault pass, FaultSet.RunCtx.)

// RunMany streams the iterator's vectors once through every program,
// judging each block against all programs that have not yet failed.
// All programs must share one width n ≤ 64 (the judge is per
// property, which fixes n). The returned slice is indexed like progs;
// each verdict is byte-identical to what New(progs[i], 1).Run(it,
// judge) would report over a fresh iterator — the first failure in
// stream order with the same TestsRun, or Holds with the full stream
// count — because the block schedule is the sequential stream order.
func RunMany(progs []*Program, it bitvec.Iterator, judge Judge) []Verdict {
	vs, _ := RunManyCtx(context.Background(), progs, it, judge)
	return vs
}

// RunManyCtx is RunMany under a context, checked once per block
// (never per vector or per program). On cancellation it returns
// nil and ctx.Err(): partial verdicts are withheld, exactly like the
// single-program RunCtx.
func RunManyCtx(ctx context.Context, progs []*Program, it bitvec.Iterator, judge Judge) ([]Verdict, error) {
	if len(progs) == 0 {
		return nil, nil
	}
	b := getBlock(fleetWidth(progs, "RunMany"))
	defer blockPool.Put(b)
	src := vecStream(it)

	verdicts := make([]Verdict, len(progs))
	// active[i] — program i has not failed yet. Failed programs drop
	// out of the per-block loop; the stream keeps going until every
	// program has failed or it drains.
	active := make([]int, len(progs))
	for i := range active {
		active[i] = i
	}
	tests := 0
	for len(active) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Shared per-block work: one load for all programs. in keeps
		// the block's inputs; each program evaluates a fresh copy of
		// them in out.
		k, m := b.step(&src, maxLanes, true)
		if k == 0 {
			break
		}
		keep := active[:0]
		for _, pi := range active {
			copy(b.out.Lines, b.in.Lines)
			if lane := b.judge(progs[pi], &judge); lane >= 0 {
				verdicts[pi] = b.failure(b.rows, lane, tests).Verdict
				continue
			}
			keep = append(keep, pi)
		}
		active = keep
		tests += m
	}
	for _, pi := range active {
		verdicts[pi] = Verdict{Holds: true, TestsRun: tests}
	}
	return verdicts, nil
}

// fleetWidth returns the one width n ≤ 64 every program of a
// multi-program pass shares, panicking when they do not.
func fleetWidth(progs []*Program, path string) int {
	n := progs[0].n
	if n > bitvec.MaxN {
		panic(fmt.Sprintf("eval: %s needs n ≤ 64, program has %d lines", path, n))
	}
	for i, p := range progs {
		if p.n != n {
			panic(fmt.Sprintf("eval: %s needs one width, program %d has %d lines, program 0 has %d", path, i, p.n, n))
		}
	}
	return n
}

package eval

import (
	"context"
	"fmt"

	"sortnets/internal/bitvec"
)

// The multi-program pass of the batch-first request model: when many
// candidate networks of one width are checked against one property,
// the expensive shared work — enumerating the minimal test stream and
// transposing it into the word layout — is identical for every
// program. RunMany does that work ONCE per block and feeds the block
// to every still-undecided program, so a fleet of k networks pays one
// enumeration + one transpose instead of k.

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
	n := progs[0].n
	if n > bitvec.MaxN {
		panic(fmt.Sprintf("eval: RunMany needs n ≤ 64, program has %d lines", n))
	}
	for i, p := range progs {
		if p.n != n {
			panic(fmt.Sprintf("eval: RunMany needs one width, program %d has %d lines, program 0 has %d", i, p.n, n))
		}
	}

	verdicts := make([]Verdict, len(progs))
	// active[i] — program i has not failed yet. Failed programs drop
	// out of the per-block loop; the stream keeps going until every
	// program has failed or it drains.
	active := make([]int, len(progs))
	for i := range active {
		active[i] = i
	}
	b := getBlock(n)
	defer blockPool.Put(b)
	tests := 0
	for len(active) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := b.fill(it, maxLanes)
		if k == 0 {
			break
		}
		// Shared per-block work: load + transpose once for all
		// programs. in keeps the block's inputs; each program
		// evaluates a fresh copy of them in out.
		b.load(b.vecs[:k], true)
		keep := active[:0]
		for _, pi := range active {
			copy(b.out.Lines, b.in.Lines)
			if lane := b.judge(progs[pi], &judge); lane >= 0 {
				verdicts[pi] = b.verdict(b.vecs[:k], lane, tests)
				continue
			}
			keep = append(keep, pi)
		}
		active = keep
		tests += k
	}
	for _, pi := range active {
		verdicts[pi] = Verdict{Holds: true, TestsRun: tests}
	}
	return verdicts, nil
}

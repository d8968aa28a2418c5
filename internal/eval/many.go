package eval

import (
	"context"
	"fmt"

	"sortnets/internal/bitvec"
	"sortnets/internal/network"
)

// The multi-program passes of the batch-first request model: when
// many programs of one width are judged against one stream — a fleet
// of candidate networks checked against one property, or every fault
// variant of one circuit — the expensive shared work, enumerating the
// stream and transposing it into the word layout, is identical for
// every program. RunMany and Sweep do that work ONCE per block and
// feed the block to every program, so k programs pay one enumeration
// and one transpose instead of k.

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

// SweepCtx streams the iterator's vectors once through every program
// like RunMany, but never early-exits: visit is called for every
// program and every judged 64-lane word, with the program's index in
// progs, the stream offset of the word's first vector and its
// rejected-lane mask (already masked to the occupied lanes). Within a
// block the programs are visited in order, each word by word. It
// returns the number of vectors swept. This is the full-matrix
// counterpart of RunMany — fault signature extraction wants every
// (test, verdict) bit, not just the first failure. The context is
// checked once per block; on cancellation it returns the vectors
// swept so far and ctx.Err().
//
//sortnets:ctxloop
func SweepCtx(ctx context.Context, progs []*Program, it bitvec.Iterator, judge Judge, visit func(prog, offset int, rejected uint64)) (int, error) {
	if len(progs) == 0 {
		return 0, nil
	}
	b := getBlock(fleetWidth(progs, "Sweep"))
	defer blockPool.Put(b)
	tests := 0
	for {
		if err := ctx.Err(); err != nil {
			return tests, err
		}
		k := b.fill(it, maxLanes)
		if k == 0 {
			return tests, nil
		}
		b.load(b.vecs[:k], true)
		for pi, p := range progs {
			copy(b.out.Lines, b.in.Lines)
			b.judge(p, &judge)
			for g, bad := range b.bad[:b.out.W] {
				visit(pi, tests+g*network.LanesPerWord, bad)
			}
		}
		tests += k
	}
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

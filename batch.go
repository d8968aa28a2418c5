package sortnets

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"sortnets/internal/eval"
	"sortnets/internal/network"
	"sortnets/internal/verify"
)

// Batch-first verdicts. Chung & Ravikumar's fixed minimal test sets
// make fleet verdicts embarrassingly batchable: loading a verify's
// exponential test stream into the word layout depends only on the
// property and the width, not the network, so it is identical for
// every same-shaped entry in a batch. DoBatch exploits exactly that:
// it canonicalizes every entry up front, deduplicates identical
// entries within the batch, and runs every group of same-width
// same-property verify entries through one shared eval.RunMany pass.
// Everything else — exhaustive sweeps, faults, minset, singletons —
// falls back to the per-request cache → coalesce → compute pipeline
// of Do, so a batch of one behaves exactly like Do. A batch's passes
// and fallback entries run side by side: all of them go to the
// compute pool at once, so a batch keeps every pool worker busy, not
// just one.

// BatchError aggregates per-entry failures from DoBatch: Errs is
// index-aligned with the submitted batch, nil at entries that
// produced a verdict. A malformed entry never fails its neighbours —
// DoBatch returns the partial verdict slice alongside the
// *BatchError. Whole-batch failures (context cancellation) are
// returned bare instead, with no verdicts.
type BatchError struct {
	Errs []error
}

// Error summarizes the failure count and quotes the first one.
func (e *BatchError) Error() string {
	n, first := 0, error(nil)
	for _, err := range e.Errs {
		if err != nil {
			if first == nil {
				first = err
			}
			n++
		}
	}
	return fmt.Sprintf("sortnets: %d of %d batch entries failed; first: %v", n, len(e.Errs), first)
}

// groupKey partitions phase 3's groupable verify entries by (width,
// property) without building a key string per entry.
type groupKey struct {
	n    int
	prop string
}

// DoBatch renders verdicts for a whole batch of Requests in one call.
// The result is index-aligned with reqs; each verdict is
// byte-identical to what a sequential Do of the same entry would
// produce (IDs echoed per entry, Source reporting hit / coalesced /
// miss as usual). Per-entry failures are collected into a returned
// *BatchError with the partial verdicts; only context cancellation
// fails the batch as a whole, returning (nil, ctx.Err()).
//
// Pipeline: resolve and digest every entry up front; deduplicate
// entries whose cache keys collide within the batch (counted in
// Stats().Batch.Deduped); serve verdict-cache hits; offer the misses
// to the cluster fill hook in one call (WithPeerFillBatch); group the
// remaining non-exhaustive verify entries by (width, property) and
// compute each group ≥ 2 through one shared eval.RunMany pass on the
// compute pool (one load of each test block for the whole group);
// run everything else through the same per-request pipeline as Do.
// The group passes and the other entries compute side by side, and
// DoBatch returns once every one of them has returned.
func (s *Session) DoBatch(ctx context.Context, reqs []Request) ([]*Verdict, error) {
	s.stats.batch.batches.Add(1)
	s.stats.batch.entries.Add(int64(len(reqs)))
	verdicts := make([]*Verdict, len(reqs))
	errs := make([]error, len(reqs))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 1: resolve every entry up front — op, network (parse /
	// untangle / canonicalize / digest), property, cache key.
	// Resolution failures become per-entry errors immediately.
	entries := make([]entry, len(reqs))
	var work []*entry
	for i := range reqs {
		e := &entries[i]
		e.idx, e.req, e.dupOf = i, reqs[i], -1
		if err := s.begin(e); err != nil {
			errs[i] = err
			continue
		}
		if err := s.resolve(e); err != nil {
			e.ctrs.errors.Add(1)
			errs[i] = err
			continue
		}
		work = append(work, e)
	}

	// Phase 2: intra-batch dedup on cache keys, then verdict-cache
	// hits for the representatives.
	byKey := make(map[string]*entry, len(work))
	var pending []*entry
	for _, e := range work {
		if rep, ok := byKey[e.key]; ok {
			e.dupOf = rep.idx
			s.stats.batch.deduped.Add(1)
			continue
		}
		byKey[e.key] = e
		if v := s.hit(e); v != nil {
			stampID(v, e.req.ID)
			verdicts[e.idx] = v
			continue
		}
		pending = append(pending, e)
	}

	// Phase 2b: one cluster-fill consultation for every miss.
	pending = s.fillBatch(ctx, pending, verdicts)

	// Phase 3: partition the misses into compute units. Non-exhaustive
	// verify entries of one (width, property) form a group, and a
	// group of ≥ 2 is one unit, a shared eval.RunMany pass. Every other
	// entry (singletons, exhaustive sweeps, faults, minset) is a unit
	// of its own, through the per-request pipeline.
	groups := make(map[groupKey][]*entry)
	var order []groupKey // deterministic group order
	var single []*entry
	for _, e := range pending {
		if e.op == OpVerify && !e.req.Exhaustive && e.n <= network.LanesPerWord {
			gk := groupKey{n: e.n, prop: e.p.Name()}
			if _, ok := groups[gk]; !ok {
				order = append(order, gk)
			}
			groups[gk] = append(groups[gk], e)
			continue
		}
		single = append(single, e)
	}
	units := make([][]*entry, 0, 1) // one unit stays on the stack
	for _, gk := range order {
		if members := groups[gk]; len(members) >= 2 {
			units = append(units, members)
		} else {
			single = append(single, members...)
		}
	}
	for i := range single {
		units = append(units, single[i:i+1])
	}

	// Phase 4: every unit at once, side by side on the compute pool.
	if err := s.computeUnits(ctx, units, verdicts, errs); err != nil {
		return nil, err
	}

	// Phase 5: resolve intra-batch duplicates off their
	// representative — a copy with the duplicate's own ID, counted as
	// the cache hit it would have been sequentially.
	for i := range entries {
		e := &entries[i]
		if e.dupOf < 0 {
			continue
		}
		if repErr := errs[e.dupOf]; repErr != nil {
			e.ctrs.errors.Add(1)
			errs[e.idx] = repErr
			continue
		}
		if rep := verdicts[e.dupOf]; rep != nil {
			e.ctrs.hits.Add(1)
			cp := withSource(rep, "coalesced")
			// The representative's copy already echoes ITS tag;
			// overwrite unconditionally so an untagged duplicate does
			// not inherit its twin's ID.
			cp.ID = e.req.ID
			verdicts[e.idx] = cp
		}
	}

	for _, err := range errs {
		if err != nil {
			return verdicts, &BatchError{Errs: errs}
		}
	}
	return verdicts, nil
}

// computeUnits is DoBatch's phase 4. It runs every unit side by side
// on the compute pool, from at most Workers() goroutines that claim
// the units in order — enough to keep every pool worker busy — and
// returns once each has returned. A batch of one unit runs it inline.
// It returns a context error that ended some unit, with the units
// left unclaimed after it skipped.
func (s *Session) computeUnits(ctx context.Context, units [][]*entry, verdicts []*Verdict, errs []error) error {
	switch len(units) {
	case 0:
		return nil
	case 1:
		return s.computeUnit(ctx, units[0], verdicts, errs)
	}
	work := slices.Clone(units) // so the caller's units stay on its stack
	ended := make([]error, len(work))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(work), s.Workers()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(work) {
					return
				}
				if ended[i] = ctx.Err(); ended[i] != nil {
					return
				}
				ended[i] = s.computeUnit(ctx, work[i], verdicts, errs)
			}
		}()
	}
	wg.Wait()
	for _, err := range ended {
		if err != nil {
			return err
		}
	}
	return nil
}

// computeUnit computes one unit — a group pass for two or more
// entries, else its one entry through Do's pipeline minus the fill
// hook, which fillBatch has already consulted — filling verdicts and
// per-entry errs at its entries' indices. It returns the context error
// that ended it, if any; other errors are per entry.
func (s *Session) computeUnit(ctx context.Context, unit []*entry, verdicts []*Verdict, errs []error) error {
	var err error
	if e := unit[0]; len(unit) > 1 {
		err = s.computeGroup(ctx, unit, verdicts)
	} else if v, verr := s.compute(ctx, e, false); verr != nil {
		err = verr
	} else {
		stampID(v, e.req.ID)
		verdicts[e.idx] = v
	}
	if err == nil {
		return nil
	}
	for _, e := range unit {
		if isCtxErr(err) {
			e.ctrs.canceled.Add(1)
		} else {
			e.ctrs.errors.Add(1)
			errs[e.idx] = err
		}
	}
	if isCtxErr(err) {
		return err
	}
	return nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fillBatch is DoBatch's cluster-fill phase: ONE hook call carries
// every pending entry, on the caller's goroutine under the caller's
// context (never on a pool worker, never inside coalescing). Adopted
// entries are cached, answered with Source "miss" and counted as the
// misses they are, with no compute; the unanswered rest is returned
// for grouping and fallback, which never offer it to the hook again.
func (s *Session) fillBatch(ctx context.Context, pending []*entry, verdicts []*Verdict) []*entry {
	if s.fill == nil || len(pending) == 0 {
		return pending
	}
	probes := make([]Request, len(pending))
	for i, e := range pending {
		probes[i] = fillRequest(&e.req, e.op)
	}
	answers := s.fill(ctx, probes)
	rest := pending[:0]
	for i, e := range pending {
		v := adopt(answers, i, e.op, e.digest)
		if v == nil {
			rest = append(rest, e)
			continue
		}
		e.ctrs.misses.Add(1)
		if s.results != nil {
			s.results.Add(e.key, v)
		}
		verdicts[e.idx] = withSource(v, "miss")
		stampID(verdicts[e.idx], e.req.ID)
	}
	return rest
}

// computeGroup runs one same-width same-property group of verify
// entries through a shared eval.RunMany pass on the compute pool: the
// test stream is loaded once per block for the whole fleet, and each
// member compiles once. Verdicts are byte-identical to sequential Do —
// RunMany's block schedule is exactly the sequential single-worker
// one — and fill the verdict cache under each member's own key. The
// pool hop bounds concurrent CPU exactly like single-shot computes;
// the pass computes under its own context, cancelled when the batch
// caller walks away.
func (s *Session) computeGroup(ctx context.Context, members []*entry, verdicts []*Verdict) error {
	p := members[0].p
	var group []*Verdict
	// A unique key: group passes never coalesce with each other (two
	// identical concurrent groups would waste, not corrupt — verdicts
	// are deterministic — and distinct batches rarely align anyway).
	key := "!group|" + strconv.FormatInt(s.groupSeq.Add(1), 10)
	_, _, err := s.startPool().do(ctx, key, func(cctx context.Context) (*Verdict, error) {
		for _, m := range members {
			m.ctrs.misses.Add(1)
			m.ctrs.computes.Add(1)
		}
		s.stats.batch.groups.Add(1)
		s.stats.batch.grouped.Add(int64(len(members)))
		if s.computeHook != nil {
			s.computeHook()
		}
		progs := make([]*eval.Program, len(members))
		for i, m := range members {
			w, err := s.canonical(m)
			if err != nil {
				return nil, err
			}
			progs[i] = eval.Compile(w)
		}
		evs, err := eval.RunManyCtx(cctx, progs, p.BinaryTests(), verify.JudgeFor(p))
		if err != nil {
			return nil, err
		}
		group = make([]*Verdict, len(members))
		for i, m := range members {
			group[i] = checkVerdict(m.digest, p.Name(), false, Result{
				Holds:          evs[i].Holds,
				TestsRun:       evs[i].TestsRun,
				Counterexample: evs[i].In,
				Output:         evs[i].Out,
			})
			if s.results != nil {
				s.results.Add(m.key, group[i])
			}
		}
		return nil, nil
	}, nil)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return err
	}
	for i, m := range members {
		verdicts[m.idx] = withSource(group[i], "miss")
		stampID(verdicts[m.idx], m.req.ID)
	}
	return nil
}

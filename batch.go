package sortnets

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"sortnets/internal/eval"
	"sortnets/internal/faults"
	"sortnets/internal/network"
	"sortnets/internal/verify"
)

// Batch-first verdicts. Chung & Ravikumar's fixed minimal test sets
// make fleet verdicts embarrassingly batchable: the expensive part of
// a verify — enumerating the exponential test stream and transposing
// it into the word layout — depends only on the property and the width,
// not the network, so it is identical for every same-shaped entry in
// a batch. DoBatch exploits exactly that: it canonicalizes every
// entry up front, deduplicates identical entries within the batch,
// compiles each distinct program once, and runs every group of
// same-width same-property verify entries through one shared
// eval.RunMany pass. Everything else — exhaustive sweeps, faults,
// minset, singletons — falls back to the per-request cache →
// coalesce → compute pipeline of Do, so a batch of one behaves
// exactly like Do.

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

// batchEntry is one request's resolved state inside DoBatch.
type batchEntry struct {
	idx    int
	op     string
	ctrs   *opCounters
	req    *Request
	w      *network.Network
	digest string
	p      verify.Property
	mode   faults.DetectMode // faults/minset only
	key    string            // cache key; "" = uncacheable
	dupOf  int               // index of the earlier entry with the same key, or -1
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
// compute pool (one test-stream enumeration and one transpose per
// block for the whole group); run everything else through
// the same per-request pipeline as Do.
func (s *Session) DoBatch(ctx context.Context, reqs []Request) ([]*Verdict, error) {
	s.stats.batch.batches.Add(1)
	s.stats.batch.entries.Add(int64(len(reqs)))
	verdicts := make([]*Verdict, len(reqs))
	errs := make([]error, len(reqs))
	failed := false
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 1: resolve every entry up front — op, network (parse /
	// untangle / canonicalize / digest), property, cache key.
	// Resolution failures become per-entry errors immediately.
	entries := make([]batchEntry, len(reqs))
	var work []*batchEntry
	for i := range reqs {
		e := &entries[i]
		e.idx, e.req, e.dupOf = i, &reqs[i], -1
		if err := s.resolveEntry(e); err != nil {
			errs[i], failed = err, true
			continue
		}
		work = append(work, e)
	}

	// Phase 2: intra-batch dedup on cache keys (cacheable entries
	// only — distinct uncacheable requests must never share), then
	// verdict-cache hits for the representatives.
	byKey := make(map[string]*batchEntry, len(work))
	var pending []*batchEntry
	for _, e := range work {
		if e.key != "" {
			if rep, ok := byKey[e.key]; ok {
				e.dupOf = rep.idx
				s.stats.batch.deduped.Add(1)
				continue
			}
			byKey[e.key] = e
			if s.results != nil {
				if v, ok := s.results.Get(e.key); ok {
					e.ctrs.hits.Add(1)
					verdicts[e.idx] = withSource(v.(*Verdict), "hit")
					stampID(verdicts[e.idx], e.req.ID)
					continue
				}
			}
		}
		pending = append(pending, e)
	}

	// Phase 2b: one cluster-fill consultation for every miss.
	pending = s.fillBatch(ctx, pending, verdicts)

	// Phase 3: partition the misses. Non-exhaustive verify entries of
	// one (width, property) form a group; groups of ≥ 2 take the
	// shared eval.RunMany pass, everything else (singletons,
	// exhaustive sweeps, faults, minset) falls back to the
	// per-request pipeline.
	groups := make(map[groupKey][]*batchEntry)
	var order []groupKey // deterministic group order
	var single []*batchEntry
	for _, e := range pending {
		if e.op == OpVerify && !e.req.Exhaustive && e.w.N <= network.LanesPerWord {
			gk := groupKey{n: e.w.N, prop: e.p.Name()}
			if _, ok := groups[gk]; !ok {
				order = append(order, gk)
			}
			groups[gk] = append(groups[gk], e)
			continue
		}
		single = append(single, e)
	}
	for _, gk := range order {
		members := groups[gk]
		if len(members) < 2 {
			single = append(single, members...)
			continue
		}
		if err := s.computeGroup(ctx, members, verdicts); err != nil {
			if isCtxErr(err) {
				for _, e := range members {
					e.ctrs.canceled.Add(1)
				}
				return nil, err
			}
			for _, e := range members {
				e.ctrs.errors.Add(1)
				errs[e.idx], failed = err, true
			}
		}
	}

	// Phase 4: the fallback entries, through the exact Do pipeline
	// (cache → coalesce → pool) minus the re-resolution.
	for _, e := range single {
		v, err := s.doResolved(ctx, e)
		if err != nil {
			if isCtxErr(err) {
				e.ctrs.canceled.Add(1)
				return nil, err
			}
			e.ctrs.errors.Add(1)
			errs[e.idx], failed = err, true
			continue
		}
		stampID(v, e.req.ID)
		verdicts[e.idx] = v
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
			errs[e.idx], failed = repErr, true
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

	if failed {
		return verdicts, &BatchError{Errs: errs}
	}
	return verdicts, nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// resolveEntry validates one batch entry and fills its resolved
// state, counting the request exactly like Do.
func (s *Session) resolveEntry(e *batchEntry) error {
	op := e.req.Op
	if op == "" {
		op = OpVerify
	}
	e.op = op
	ctrs := s.stats.forOp(op)
	if ctrs == nil {
		s.stats.unknown.requests.Add(1)
		s.stats.unknown.errors.Add(1)
		return badRequest("unknown op %q (want %s, %s or %s)", e.req.Op, OpVerify, OpFaults, OpMinset)
	}
	e.ctrs = ctrs
	ctrs.requests.Add(1)
	fail := func(err error) error {
		ctrs.errors.Add(1)
		return err
	}
	switch op {
	case OpVerify:
		w, digest, err := s.resolveRequest(e.req, s.maxLines)
		if err != nil {
			return fail(err)
		}
		p, err := propertyFor(e.req.Property, w.N, e.req.K)
		if err != nil {
			return fail(err)
		}
		e.w, e.digest, e.p = w, digest, p
		e.key = s.verifyKey(digest, p.Name(), e.req.Exhaustive)
	default: // OpFaults, OpMinset
		w, digest, p, mode, err := s.faultArgs(e.req)
		if err != nil {
			return fail(err)
		}
		e.w, e.digest, e.p, e.mode = w, digest, p, mode
		if op == OpFaults {
			e.key = faultsKey(digest, p, mode)
		} else {
			e.key = minsetKey(digest, p, mode, e.req.Exact)
		}
	}
	return nil
}

// fillBatch is DoBatch's cluster-fill phase: ONE hook call carries
// every pending entry, on the caller's goroutine under the caller's
// context (never on a pool worker, never inside coalescing). Adopted
// entries are cached, answered with Source "miss" and counted as the
// misses they are, with no compute; the unanswered rest is returned
// for grouping and fallback, which never offer it to the hook again.
// Stream overrides skip fill (see withPeerFill).
func (s *Session) fillBatch(ctx context.Context, pending []*batchEntry, verdicts []*Verdict) []*batchEntry {
	if s.fill == nil || s.stream != nil || len(pending) == 0 {
		return pending
	}
	probes := make([]Request, len(pending))
	for i, e := range pending {
		probes[i] = fillRequest(e.req, e.op)
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

// doResolved routes one already-resolved entry through the
// per-request pipeline — Do minus the parsing, and minus the fill
// hook, which fillBatch already consulted for the whole batch.
func (s *Session) doResolved(ctx context.Context, e *batchEntry) (*Verdict, error) {
	switch e.op {
	case OpVerify:
		return s.doVerifyResolved(ctx, e.ctrs, nil, e.w, e.digest, e.p, e.req.Exhaustive)
	case OpFaults:
		return s.doFaultsResolved(ctx, e.ctrs, nil, e.w, e.digest, e.p, e.mode)
	default:
		return s.doMinsetResolved(ctx, e.ctrs, nil, e.w, e.digest, e.p, e.mode, e.req.Exact)
	}
}

// computeGroup runs one same-width same-property group of verify
// entries through a shared eval.RunMany pass on the compute pool: the
// test stream is enumerated and transposed once per block for the
// whole fleet, and each distinct program compiles once. Verdicts
// are byte-identical to sequential Do — RunMany's block schedule is
// exactly the sequential single-worker one — and fill the verdict
// cache under each member's own key. The pool hop bounds concurrent
// CPU exactly like single-shot computes; the pass computes under its
// own context, cancelled when the batch caller walks away.
func (s *Session) computeGroup(ctx context.Context, members []*batchEntry, verdicts []*Verdict) error {
	p := members[0].p
	progs := make([]*eval.Program, len(members))
	for i, m := range members {
		progs[i] = s.program(m.digest, m.w)
	}
	var group []*Verdict
	// A unique key: group passes never coalesce with each other (two
	// identical concurrent groups would waste, not corrupt — verdicts
	// are deterministic — and distinct batches rarely align anyway).
	key := "!group|" + strconv.FormatInt(s.uncached.Add(1), 10)
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
		evs, err := eval.RunManyCtx(cctx, progs, s.binaryTests(p), verify.JudgeFor(p))
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
			if s.results != nil && m.key != "" {
				s.results.Add(m.key, group[i])
			}
		}
		return nil, nil
	}, nil)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		if errors.Is(err, errSubmitterGone) {
			// The queue was full and our submission was abandoned by a
			// twin — impossible for unique keys, but retry for form.
			return s.computeGroup(ctx, members, verdicts)
		}
		return err
	}
	for i, m := range members {
		verdicts[m.idx] = withSource(group[i], "miss")
		stampID(verdicts[m.idx], m.req.ID)
	}
	return nil
}

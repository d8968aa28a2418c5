package sortnets

import (
	"context"
	"fmt"

	"sortnets/internal/bitvec"
	"sortnets/internal/eval"
	"sortnets/internal/faults"
	"sortnets/internal/verify"
)

// Typed conveniences: the library-side face of the Session for
// callers holding real *Network values. They share Do's caches —
// verdicts land under the same (operation, digest, property) keys
// the HTTP path uses, and programs under the same digests — but
// compute on the caller's goroutine (no pool hop, no coalescing) and
// enforce no line caps: this is a trusted surface, so a mismatched
// property is a programmer error and panics.
//
// Determinism and caching: Check, GroundTruth, CheckPerms,
// FaultCoverage and MinSet run deterministic single-worker engines
// and are verdict-cached (built-in properties only — caller-defined
// Property implementations are computed fresh, since their names are
// not canonical cache keys). The *Parallel and Wide variants take an
// explicit worker count under the one rule (0 = automatic, 1 =
// sequential, k = exactly k) and are never verdict-cached, because a
// pooled counterexample identity is schedule-dependent.

// Check decides the property with its minimal binary test set on a
// cached compiled program, deterministically (stream-order
// counterexample). The error is non-nil only when ctx is cancelled.
func (s *Session) Check(ctx context.Context, w *Network, p Property) (Result, error) {
	_, digest, prog := s.resolveNetwork(w)
	name, builtin := wireProperty(p)
	if !builtin {
		return s.checkProgram(ctx, prog, p, false)
	}
	key := s.verifyKey(digest, name, false)
	v, err := s.cachedInline(ctx, key, func(cctx context.Context) (any, error) {
		r, err := s.checkProgram(cctx, prog, p, false)
		if err != nil {
			return nil, err
		}
		return checkVerdict(digest, name, false, r), nil
	})
	if err != nil {
		return Result{}, err
	}
	return resultFrom(v.(*Verdict)), nil
}

// CheckMany decides ONE property for a whole fleet of networks in a
// single shared engine pass — the library face of the batch-first
// model. The property's minimal test set is enumerated and transposed
// once per block for every still-undecided program
// (eval.RunMany), instead of once per network; cache hits and
// canonical duplicates within the fleet skip the pass entirely. Each
// Result is identical to what Check would return for that network.
// Every network must have p.Lines() lines (≤ 64 — beyond that only
// the polynomial Wide families are feasible anyway).
func (s *Session) CheckMany(ctx context.Context, ws []*Network, p Property) ([]Result, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	name, builtin := wireProperty(p)
	results := make([]Result, len(ws))
	// pending is one distinct circuit awaiting the shared pass, with
	// every fleet index it answers (canonical duplicates collapse).
	type pending struct {
		key    string
		digest string
		prog   *eval.Program
		idxs   []int
	}
	var order []*pending
	byKey := make(map[string]*pending)
	for i, w := range ws {
		if w.N != p.Lines() {
			panic(fmt.Sprintf("sortnets: network has %d lines, property wants %d", w.N, p.Lines()))
		}
		_, digest, prog := s.resolveNetwork(w)
		key := ""
		if builtin {
			key = s.verifyKey(digest, name, false)
		}
		if key != "" {
			if s.results != nil {
				if v, ok := s.results.Get(key); ok {
					results[i] = resultFrom(v.(*Verdict))
					continue
				}
			}
			if pe, ok := byKey[key]; ok {
				pe.idxs = append(pe.idxs, i)
				continue
			}
		}
		pe := &pending{key: key, digest: digest, prog: prog, idxs: []int{i}}
		if key != "" {
			byKey[key] = pe
		}
		order = append(order, pe)
	}
	if len(order) == 0 {
		return results, nil
	}
	progs := make([]*eval.Program, len(order))
	for i, pe := range order {
		progs[i] = pe.prog
	}
	stream := p.BinaryTests()
	if s.stream != nil {
		stream = s.stream(p)
	}
	evs, err := eval.RunManyCtx(ctx, progs, stream, verify.JudgeFor(p))
	if err != nil {
		return nil, err
	}
	for i, pe := range order {
		r := Result{Holds: evs[i].Holds, TestsRun: evs[i].TestsRun, Counterexample: evs[i].In, Output: evs[i].Out}
		if pe.key != "" && s.results != nil {
			s.results.Add(pe.key, checkVerdict(pe.digest, name, false, r))
		}
		for _, idx := range pe.idxs {
			results[idx] = r
		}
	}
	return results, nil
}

// GroundTruth decides the property against the entire binary
// universe — the exhaustive baseline the minimal test sets are
// measured against — deterministically, on a cached program.
func (s *Session) GroundTruth(ctx context.Context, w *Network, p Property) (Result, error) {
	_, digest, prog := s.resolveNetwork(w)
	name, builtin := wireProperty(p)
	if !builtin {
		return verify.GroundTruthProgramCtx(ctx, prog, p)
	}
	key := s.verifyKey(digest, name, true)
	v, err := s.cachedInline(ctx, key, func(cctx context.Context) (any, error) {
		r, err := verify.GroundTruthProgramCtx(cctx, prog, p)
		if err != nil {
			return nil, err
		}
		return checkVerdict(digest, name, true, r), nil
	})
	if err != nil {
		return Result{}, err
	}
	return resultFrom(v.(*Verdict)), nil
}

// CheckParallel is Check with an explicit engine worker count (0 =
// automatic, 1 = sequential, k > 1 = exactly k). Uncached: with a
// pool the first failure found wins, so the counterexample identity
// is schedule-dependent.
func (s *Session) CheckParallel(ctx context.Context, w *Network, p Property, workers int) (Result, error) {
	return verify.VerdictCtx(ctx, w, p, workers)
}

// GroundTruthParallel is GroundTruth with an explicit engine worker
// count (0 = automatic). Uncached, like CheckParallel.
func (s *Session) GroundTruthParallel(ctx context.Context, w *Network, p Property, workers int) (Result, error) {
	return verify.GroundTruthCtx(ctx, w, p, workers)
}

// CheckPerms decides the property with its minimal permutation test
// set (deterministic, cached for built-in properties).
func (s *Session) CheckPerms(ctx context.Context, w *Network, p Property) (PermResult, error) {
	c, digest, _ := s.resolveNetwork(w)
	name, builtin := wireProperty(p)
	if !builtin || s.stream != nil {
		return verify.VerdictPermsCtx(ctx, w, p)
	}
	key := fmt.Sprintf("perms|%s|%s", digest, name)
	v, err := s.cachedInline(ctx, key, func(cctx context.Context) (any, error) {
		return verify.VerdictPermsCtx(cctx, c, p)
	})
	if err != nil {
		return PermResult{}, err
	}
	// Deep-copy the mutable fields on the way out: the cached entry is
	// shared and must stay immutable (the PR 2 copy-on-return rule for
	// memoized families).
	r := v.(PermResult)
	r.Counterexample = append(Perm(nil), r.Counterexample...)
	r.Output = append([]int(nil), r.Output...)
	return r, nil
}

// Wide certifies the property at widths beyond 64 lines with the
// paper's polynomial test sets, on a cached compiled program. p must
// be a MergerProp or SelectorProp (the regimes with polynomial
// families); workers follows the one rule (0 = automatic).
func (s *Session) Wide(ctx context.Context, w *Network, p Property, workers int) (WideResult, error) {
	_, _, prog := s.resolveNetwork(w)
	return verify.VerdictWideProgramCtx(ctx, prog, p, workers)
}

// FaultCoverage measures how many detectable faults the sorter's
// minimal test set exposes under the session's fault-detection mode.
// Unlike Do (which canonicalizes first), the fault conveniences
// evaluate the network EXACTLY as written — fault-injected circuits
// (bridges in particular) are not invariant under within-layer
// reordering, so the cache key is the exact text form, not the
// canonical digest. The healthy golden program is still shared
// through the digest-keyed program cache (it is function-level).
func (s *Session) FaultCoverage(ctx context.Context, w *Network) (FaultReport, error) {
	_, _, golden := s.resolveNetwork(w)
	p := verify.Sorter{N: w.N}
	mode := s.faultMode
	key := fmt.Sprintf("faults|exact:%s|%s|%s", w.Format(), p.Name(), mode)
	v, err := s.cachedInline(ctx, key, func(cctx context.Context) (any, error) {
		rep, err := faults.MeasureCtx(cctx, w, golden, faults.Enumerate(w), p.BinaryTests, mode)
		if err != nil {
			return nil, err
		}
		return rep, nil
	})
	if err != nil {
		return FaultReport{}, err
	}
	return v.(FaultReport), nil
}

// MinSet greedily selects a small subset of the minimal sorter test
// set that still detects every fault the full set detects — stuck-at
// test-set selection on the same machinery that verifies test sets.
// Like FaultCoverage, it evaluates the network exactly as written.
func (s *Session) MinSet(ctx context.Context, w *Network) ([]Vec, error) {
	_, _, golden := s.resolveNetwork(w)
	p := verify.Sorter{N: w.N}
	mode := s.faultMode
	key := fmt.Sprintf("minset|exact:%s|%s|%s", w.Format(), p.Name(), mode)
	v, err := s.cachedInline(ctx, key, func(cctx context.Context) (any, error) {
		m, err := faults.DetectionMatrixCtx(cctx, w, golden, faults.Enumerate(w), p.BinaryTests, mode)
		if err != nil {
			return nil, err
		}
		picks := m.MinimalDetectingSet()
		out := make([]Vec, len(picks))
		for i, t := range picks {
			out[i] = m.Tests[t]
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	// Fresh slice per call: callers may reorder or overwrite their
	// copy without poisoning the shared cache entry.
	return append([]Vec(nil), v.([]Vec)...), nil
}

// cachedInline is the convenience-path cache pipeline: same keys and
// entries as Do's, but computed on the caller's goroutine (no pool,
// no coalescing). An empty key computes fresh.
func (s *Session) cachedInline(ctx context.Context, key string, compute func(context.Context) (any, error)) (any, error) {
	if s.results != nil && key != "" {
		if v, ok := s.results.Get(key); ok {
			return v, nil
		}
	}
	v, err := compute(ctx)
	if err != nil {
		return nil, err
	}
	if s.results != nil && key != "" {
		s.results.Add(key, v)
	}
	return v, nil
}

// resultFrom reconstructs the typed Result from a (possibly cached)
// verify Verdict — the string forms are lossless for n ≤ 64.
func resultFrom(v *Verdict) Result {
	cv := v.Check
	r := Result{Holds: cv.Holds, TestsRun: cv.TestsRun}
	if !cv.Holds {
		r.Counterexample = bitvec.MustFromString(cv.Counterexample)
		r.Output = bitvec.MustFromString(cv.Output)
	}
	return r
}

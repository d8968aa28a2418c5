package sortnets

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"sortnets/internal/eval"
	"sortnets/internal/faults"
	"sortnets/internal/network"
	"sortnets/internal/verify"
)

// Session is the context-aware verdict engine of the package and its
// one verdict surface: a reusable handle owning a verdict cache (keyed
// on the canonical digest of internal/canon), a resolve memo, a
// coalescing worker pool, and default options. Library callers and
// sortnetd's POST /do ask it through one request model:
//
//	sess := sortnets.NewSession(sortnets.WithWorkers(0))
//	v, err := sess.Do(ctx, sortnets.Request{Network: "n=4: [1,2][3,4][1,3][2,4][2,3]"})
//
// plus typed conveniences (Check, CheckPerms, FaultCoverage, MinSet,
// Wide, …) for library callers holding real *Network values.
//
// Cancellation: every entry point takes a context.Context that is
// propagated into the engine loops, where it is checked once per
// block — deadlines and client disconnects actually stop
// work, on the minimal-test, exhaustive-universe, wide, closure-BFS
// and hitting-set-solver paths alike.
//
// Caching: verdicts are cached by (operation, canonical digest,
// property, flags), so repeated requests for structurally equivalent
// circuits — same circuit, parallel layers interleaved differently —
// share one verdict. Each computed verdict compiles its own program.
// Everything that feeds the cache is deterministic (single-worker
// engines, stream-order counterexamples, deterministic greedy/solver
// tie-breaks), so cached, coalesced and recomputed verdicts can
// never disagree. Do's cache/coalescing pipeline is exactly the one
// sortnetd serves over HTTP: the semantics are identical in-process
// and over the wire.
//
// Worker semantics (the ONE rule, used by every option, flag and
// function in the repository): 0 or negative means AUTOMATIC — a
// plain worker pool uses GOMAXPROCS workers, the streaming engine
// stays sequential below its work threshold and uses GOMAXPROCS
// workers above it; 1 pins strictly sequential, deterministic
// execution; k > 1 forces exactly k workers.
type Session struct {
	workers       int
	cacheSize     int
	maxLines      int
	maxFaultLines int
	faultMode     faults.DetectMode
	computeHook   func()
	fill          func(ctx context.Context, reqs []Request) []*Verdict

	results  *lru[any]         // verdict cache: key → *Verdict or typed result
	resolved *lru[resolvedNet] // network text → digest and line count

	poolOnce sync.Once
	pool     *pool

	groupSeq atomic.Int64 // unique-key source for DoBatch group passes
	stats    sessionCounters
}

// Option configures a Session.
type Option func(*Session)

// WithWorkers sets the size of the Session's compute pool — how many
// verdicts may compute concurrently through Do (each on a
// deterministic single-worker engine). 0 or negative means automatic
// (GOMAXPROCS); 1 serializes; k > 1 forces exactly k. The typed
// conveniences compute on the caller's goroutine and are not bounded
// by the pool.
func WithWorkers(n int) Option { return func(s *Session) { s.workers = n } }

// WithCache sets the verdict-cache capacity in entries. 0 or
// negative disables verdict caching (request coalescing still
// applies); the default is 4096.
func WithCache(entries int) Option { return func(s *Session) { s.cacheSize = entries } }

// WithMaxLines caps the line count Do accepts for OpVerify requests
// (minimal sorter test sets grow like 2ⁿ). 0 or negative keeps the
// default of 20. The typed conveniences are a trusted library
// surface and are not capped.
func WithMaxLines(n int) Option { return func(s *Session) { s.maxLines = n } }

// WithMaxFaultLines caps the line count Do accepts for OpFaults and
// OpMinset requests (fault detectability sweeps the 2ⁿ universe, once
// per chunk of the fault list). 0 or negative keeps the default of 12.
func WithMaxFaultLines(n int) Option { return func(s *Session) { s.maxFaultLines = n } }

// WithFaultMode sets the default fault-detection mode used by
// FaultCoverage/MinSet and by Do requests that omit one. The default
// is ByProperty (the paper's observation model).
func WithFaultMode(m DetectMode) Option { return func(s *Session) { s.faultMode = m } }

// WithComputeHook installs a function invoked on the pool worker
// immediately before each underlying Do computation — an
// instrumentation/test seam (hold it open to observe coalescing).
func WithComputeHook(fn func()) Option { return func(s *Session) { s.computeHook = fn } }

// WithPeerFillBatch installs the cluster's cache-fill hook: verdict-
// cache misses for wire Requests are offered to fill BEFORE computing
// locally. The answer is index-aligned with reqs; a non-nil verdict
// is adopted if it is for the probed op and canonical digest — cached
// and replayed exactly as a computed one (verdicts are deterministic,
// so a peer's bytes and a local compute's bytes are the same bytes),
// counted as a miss with no compute. nil falls through to the local
// compute. Probes carry no ID and always name their op.
//
// DoBatch calls the hook once per batch with every pending entry (no
// cache hits, no intra-batch duplicates), on the caller's goroutine
// under the caller's context — before the compute pool and outside
// coalescing, so a worker never waits on the network; entries it
// leaves unanswered are never offered again. A single-shot Do calls
// it with one request from inside the coalescing pool's registered
// call, so concurrent identical misses trigger at most ONE
// consultation; that context is the compute context, detached from
// any one caller. Either way the hook must bound its own network
// budget. Typed conveniences never consult the hook; internal/serve
// installs it when sortnetd runs with -peers.
func WithPeerFillBatch(fill func(ctx context.Context, reqs []Request) []*Verdict) Option {
	return func(s *Session) { s.fill = fill }
}

// WithPeerFill is WithPeerFillBatch for a hook that answers one
// request at a time: the batch hook it installs asks fill about each
// request in turn. Returning (v, true) offers v for adoption; false is
// a miss. As there, a DoBatch consults it before the compute pool and
// outside coalescing, while a single-shot Do consults it inside its
// single-flight call; adoption and counting are the same.
func WithPeerFill(fill func(ctx context.Context, req Request) (*Verdict, bool)) Option {
	return WithPeerFillBatch(func(ctx context.Context, reqs []Request) []*Verdict {
		out := make([]*Verdict, len(reqs))
		for i := range reqs {
			if v, ok := fill(ctx, reqs[i]); ok {
				out[i] = v
			}
		}
		return out
	})
}

// NewSession builds a Session. The zero configuration — automatic
// pool size, 4096 verdict entries, line caps 20/12, ByProperty fault
// detection — is right for both library use and serving.
func NewSession(opts ...Option) *Session {
	s := &Session{
		workers:       0,
		cacheSize:     4096,
		maxLines:      20,
		maxFaultLines: 12,
		faultMode:     faults.ByProperty,
	}
	for _, o := range opts {
		o(s)
	}
	if s.maxLines <= 0 {
		s.maxLines = 20
	}
	if s.maxFaultLines <= 0 {
		s.maxFaultLines = 12
	}
	if s.cacheSize > 0 {
		s.results = newLRU[any](s.cacheSize)
	}
	// Resolutions are tiny next to verdict payloads and spare the
	// serve path's hot loop its parse/canonicalize/digest, so the memo
	// is serving-sized regardless of the verdict-cache setting.
	s.resolved = newLRU[resolvedNet](8192)
	return s
}

// resolvedNet is one resolve-memo entry: the digest and line count of
// a network-text request form. A hit needs nothing else (the digest
// keys the verdict cache, the line count meets the op's cap), so the
// memo keeps no network; a verdict-cache miss after a hit resolves the
// text again.
type resolvedNet struct {
	digest string
	n      int
}

// resolveRequest is Request.resolve behind the session's resolve
// memo: the text form's parse → untangle → canonicalize → sha256
// pipeline runs once per distinct network string, not once per
// request. It sets the entry's digest and line count, and its
// canonical network only when it parsed one. The op's line cap is
// re-checked on every hit because the caps differ per op (verify vs
// faults/minset), with the error byte-identical to resolve's.
// Comparator-form and malformed requests pass straight through
// unmemoized.
func (s *Session) resolveRequest(e *entry) error {
	maxLines := s.lineCap(e.op)
	memo := e.req.Network != "" && e.req.Comparators == nil && e.req.Lines <= 0
	if memo {
		if r, ok := s.resolved.Get(e.req.Network); ok {
			if r.n > maxLines {
				return lineLimitError(r.n, maxLines)
			}
			e.n, e.digest = r.n, r.digest
			return nil
		}
	}
	w, digest, err := e.req.resolve(maxLines)
	if err != nil {
		return err
	}
	if memo {
		s.resolved.Add(e.req.Network, resolvedNet{digest: digest, n: w.N})
	}
	e.w, e.n, e.digest = w, w.N, digest
	return nil
}

// lineCap is the line count Do accepts for op.
func (s *Session) lineCap(op string) int {
	if op == OpVerify {
		return s.maxLines
	}
	return s.maxFaultLines
}

// Workers resolves the session's pool size under the one worker rule.
func (s *Session) Workers() int {
	if s.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.workers
}

// startPool lazily spins up the compute pool: a Session used only
// through the typed conveniences never spawns a goroutine.
func (s *Session) startPool() *pool {
	s.poolOnce.Do(func() { s.pool = newPool(s.Workers(), func() { s.stats.panics.Add(1) }) })
	return s.pool
}

// Close stops the pool workers, if any were started. No Do calls may
// be in flight or follow.
func (s *Session) Close() {
	if s.pool != nil {
		s.pool.close()
	}
}

// Doer is the one-request-model interface: *Session implements it
// in-process and *client.Client implements it against a sortnetd
// URL, so callers swap local ↔ remote by swapping a value.
type Doer interface {
	Do(ctx context.Context, req Request) (*Verdict, error)
	// DoBatch renders verdicts for a whole batch in one call, with
	// Session.DoBatch's contract: the result is index-aligned with
	// reqs, per-entry failures land in a *BatchError, and every
	// verdict is byte-identical to what sequential Do calls would
	// produce.
	DoBatch(ctx context.Context, reqs []Request) ([]*Verdict, error)
}

// --- Stats --------------------------------------------------------------

type opCounters struct {
	requests  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	computes  atomic.Int64
	canceled  atomic.Int64
	errors    atomic.Int64
}

type sessionCounters struct {
	verify  opCounters
	faults  opCounters
	minset  opCounters
	unknown opCounters // requests naming no known op (counted, then rejected)
	batch   batchCounters
	panics  atomic.Int64 // compute panics recovered by the pool (*PanicError)
}

// batchCounters observe the DoBatch pipeline: how many batches and
// entries arrived, how many entries were deduplicated against an
// identical entry in the same batch, and how many computed through a
// shared eval.RunMany pass (groups counts the passes themselves).
type batchCounters struct {
	batches atomic.Int64
	entries atomic.Int64
	deduped atomic.Int64
	grouped atomic.Int64
	groups  atomic.Int64
}

func (s *sessionCounters) forOp(op string) *opCounters {
	switch op {
	case OpVerify:
		return &s.verify
	case OpFaults:
		return &s.faults
	case OpMinset:
		return &s.minset
	}
	return nil
}

// OpStats is a point-in-time snapshot of one operation's counters.
// Canceled counts callers that abandoned a verdict (context cancelled
// or deadline exceeded) — their pool slot is released, not leaked.
type OpStats struct {
	Requests  int64 `json:"requests"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Computes  int64 `json:"computes"`
	Canceled  int64 `json:"canceled"`
	Errors    int64 `json:"errors"`
}

func (c *opCounters) snapshot() OpStats {
	return OpStats{
		Requests:  c.requests.Load(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Computes:  c.computes.Load(),
		Canceled:  c.canceled.Load(),
		Errors:    c.errors.Load(),
	}
}

// CacheStats reports verdict-cache occupancy.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Evictions int64 `json:"evictions"`
}

// BatchStats is a point-in-time snapshot of the DoBatch counters.
// Deduped entries were answered by an identical entry in the same
// batch; Grouped entries computed through a shared eval.RunMany pass
// (Groups counts the passes), so Grouped − Groups is the number of
// program runs the batch-first model saved enumeration work for.
type BatchStats struct {
	Batches int64 `json:"batches"`
	Entries int64 `json:"entries"`
	Deduped int64 `json:"deduped"`
	Grouped int64 `json:"grouped"`
	Groups  int64 `json:"groups"`
}

// SessionStats is the Stats snapshot: per-operation counters, batch
// pipeline counters, cache occupancy, the resolved pool size, and the
// count of compute panics the pool recovered into *PanicError (each
// cost one caller an error, not the process its life).
type SessionStats struct {
	Ops     map[string]OpStats `json:"ops"`
	Batch   BatchStats         `json:"batch"`
	Cache   CacheStats         `json:"cache"`
	Workers int                `json:"workers"`
	Panics  int64              `json:"panics"`
}

// Stats returns a point-in-time snapshot of all counters.
func (s *Session) Stats() SessionStats {
	st := SessionStats{
		Ops: map[string]OpStats{
			OpVerify:  s.stats.verify.snapshot(),
			OpFaults:  s.stats.faults.snapshot(),
			OpMinset:  s.stats.minset.snapshot(),
			"unknown": s.stats.unknown.snapshot(),
		},
		Batch: BatchStats{
			Batches: s.stats.batch.batches.Load(),
			Entries: s.stats.batch.entries.Load(),
			Deduped: s.stats.batch.deduped.Load(),
			Grouped: s.stats.batch.grouped.Load(),
			Groups:  s.stats.batch.groups.Load(),
		},
		Workers: s.Workers(),
		Panics:  s.stats.panics.Load(),
	}
	if s.results != nil {
		st.Cache = CacheStats{
			Entries:   s.results.Len(),
			Capacity:  s.results.Cap(),
			Evictions: s.results.Evictions(),
		}
	}
	return st
}

// --- The single entry point ---------------------------------------------

// entry is one request on its way to a verdict: the one resolved form
// that Do, DoBatch and Lookup share. begin names its op and counts it,
// resolve fills in its network, property, detection mode and cache
// key, and compute answers it from the verdict cache, the coalescing
// pool or the engine. Only DoBatch sets idx and dupOf.
type entry struct {
	idx    int // index in the batch
	dupOf  int // index of the earlier batch entry with the same key, or -1
	op     string
	ctrs   *opCounters
	req    Request
	w      *network.Network // canonical network; nil after a resolve-memo hit
	n      int              // line count
	digest string
	p      verify.Property
	mode   faults.DetectMode // faults/minset only
	key    string            // verdict-cache key
}

// Do renders the verdict for one Request: parse/untangle/canonicalize
// the network, route through the verdict cache and the coalescing
// pool, compute on a deterministic single-worker engine under the
// call's context, and shape the unified Verdict. This is the exact
// pipeline sortnetd serves: internal/serve decodes HTTP bodies into
// the same Request and encodes the same Verdict.
//
// Errors: *RequestError for malformed requests (a 4xx over the
// wire), the context's error when cancelled, and nothing else.
func (s *Session) Do(ctx context.Context, req Request) (*Verdict, error) {
	e := entry{req: req}
	if err := s.begin(&e); err != nil {
		return nil, err
	}
	err := ctx.Err()
	if err == nil {
		err = s.resolve(&e)
	}
	var v *Verdict
	if err == nil {
		v, err = s.compute(ctx, &e, true)
	}
	switch {
	case err == nil:
		stampID(v, req.ID)
	case isCtxErr(err):
		e.ctrs.canceled.Add(1)
	default:
		e.ctrs.errors.Add(1)
	}
	return v, err
}

// stampID echoes the request's tag onto a verdict. v is always the
// per-caller shallow copy made by withSource — cached verdicts are
// shared and stored ID-less, so two requests differing only in ID
// share one cache entry yet each hears its own tag back.
func stampID(v *Verdict, id string) {
	if v != nil && id != "" {
		v.ID = id
	}
}

// begin names the entry's op and counts the request under it, or
// under "unknown", rejected, when the op is none of the three.
func (s *Session) begin(e *entry) error {
	if !s.named(e) {
		s.stats.unknown.requests.Add(1)
		s.stats.unknown.errors.Add(1)
		return badRequest("unknown op %q (want %s, %s or %s)", e.req.Op, OpVerify, OpFaults, OpMinset)
	}
	e.ctrs.requests.Add(1)
	return nil
}

// named sets the entry's op, verify when the request names none, and
// that op's counters, and reports whether the op is known.
func (s *Session) named(e *entry) bool {
	e.op = e.req.Op
	if e.op == "" {
		e.op = OpVerify
	}
	e.ctrs = s.stats.forOp(e.op)
	return e.ctrs != nil
}

// resolve fills in the entry's network, property, detection mode and
// verdict-cache key from its request, under its op's line cap.
func (s *Session) resolve(e *entry) error {
	err := s.resolveRequest(e)
	if err != nil {
		return err
	}
	if e.p, err = propertyFor(e.req.Property, e.n, e.req.K); err != nil {
		return err
	}
	if e.op == OpVerify {
		e.key = verifyKey(e.digest, e.p.Name(), e.req.Exhaustive)
		return nil
	}
	e.mode = s.faultMode
	if e.req.Mode != "" {
		if e.mode, err = detectModeFor(e.req.Mode); err != nil {
			return err
		}
	}
	if _, ok := e.p.(verify.Sorter); !ok && e.mode == faults.ByProperty {
		return badRequest("by-property detection judges outputs as a sorter; use property=sorter or mode=by-golden")
	}
	if e.op == OpFaults {
		e.key = faultsKey(e.digest, e.p, e.mode)
	} else {
		e.key = minsetKey(e.digest, e.p, e.mode, e.req.Exact)
	}
	return nil
}

// The cache keys are plain concatenations (byte-identical to the
// historical fmt.Sprintf forms, without the reflection allocations —
// they are built once per request on the serve hot path).

func verifyKey(digest, prop string, exhaustive bool) string {
	return "verify|" + digest + "|" + prop + "|exhaustive=" + strconv.FormatBool(exhaustive)
}

func faultsKey(digest string, p verify.Property, mode faults.DetectMode) string {
	return "faults|" + digest + "|" + p.Name() + "|" + mode.String()
}

func minsetKey(digest string, p verify.Property, mode faults.DetectMode, exact bool) string {
	return "minset|" + digest + "|" + p.Name() + "|" + mode.String() + "|exact=" + strconv.FormatBool(exact)
}

// compute runs the cache → coalesce → compute pipeline for one
// resolved entry. fill offers a miss to the cluster fill hook before
// computing; only Do sets it, as DoBatch consults the hook once for its
// whole batch. The verdict is deterministic: it is stored and replayed
// (and, over the wire, marshals byte-identically).
func (s *Session) compute(ctx context.Context, e *entry, fill bool) (*Verdict, error) {
	if v := s.hit(e); v != nil {
		return v, nil
	}
	e.ctrs.misses.Add(1)
	// The pooled call holds a copy made only on a miss, so a hit leaves
	// the caller's entry on its stack.
	m := *e
	run := func(cctx context.Context) (*Verdict, error) {
		// Re-check the cache from inside the registered call: a twin
		// that was in flight during our lookup may have filled the
		// cache and left the inflight table in the gap before our
		// registration. Its Add happens before its deregistration, so
		// if we registered fresh, the result is already visible here —
		// without this, two "concurrent identical" requests could both
		// compute.
		if s.results != nil {
			if v, ok := s.results.Get(m.key); ok {
				return v.(*Verdict), nil
			}
		}
		v, err := s.evaluate(cctx, &m, fill)
		if err == nil && s.results != nil {
			// Fill the cache on the pool worker, before the in-flight
			// entry is dropped, so there is no window where neither
			// the cache nor the inflight table knows the result.
			s.results.Add(m.key, v)
		}
		return v, err
	}
	joined := func() { m.ctrs.coalesced.Add(1) }
	for {
		v, coalesced, err := s.startPool().do(ctx, m.key, run, joined)
		switch {
		case err == nil && coalesced:
			return withSource(v, "coalesced"), nil
		case err == nil:
			return withSource(v, "miss"), nil
		case ctx.Err() != nil:
			// The compute context dies only when every waiter is gone; a
			// waiter that is still here was cancelled itself. Either way
			// the caller's context error is the honest answer.
			return nil, ctx.Err()
		case !errors.Is(err, errSubmitterGone):
			return nil, err
		}
		// We coalesced onto a call whose submitter abandoned it before
		// a worker picked it up; our context is fine, so resubmit (the
		// dead call has left the inflight table).
	}
}

// hit answers the entry from the verdict cache and counts the hit; nil
// is a miss, which the caller counts.
func (s *Session) hit(e *entry) *Verdict {
	if s.results == nil {
		return nil
	}
	v, ok := s.results.Get(e.key)
	if !ok {
		return nil
	}
	e.ctrs.hits.Add(1)
	return withSource(v.(*Verdict), "hit")
}

// evaluate renders a missed entry's verdict on its pool worker: it
// offers the request to the cluster fill hook first when fill is set,
// and computes on a deterministic single-worker engine when no peer
// answers. The compute counter and hook fire only on the local
// branch, so an adopted verdict is a miss that cost no compute — the
// property the cluster's "sum of per-shard computes == distinct work"
// accounting rests on.
func (s *Session) evaluate(ctx context.Context, e *entry, fill bool) (*Verdict, error) {
	if fill && s.fill != nil {
		if v := adopt(s.fill(ctx, []Request{fillRequest(&e.req, e.op)}), 0, e.op, e.digest); v != nil {
			return v, nil
		}
	}
	e.ctrs.computes.Add(1)
	if s.computeHook != nil {
		s.computeHook()
	}
	w, err := s.canonical(e)
	if err != nil {
		return nil, err
	}
	switch e.op {
	case OpVerify:
		r, err := checkProgram(ctx, eval.Compile(w), e.p, e.req.Exhaustive)
		if err != nil {
			return nil, err
		}
		return checkVerdict(e.digest, e.p.Name(), e.req.Exhaustive, r), nil
	case OpFaults:
		rep, err := faults.MeasureCtx(ctx, w, nil, faults.Enumerate(w), e.p.BinaryTests, e.mode)
		if err != nil {
			return nil, err
		}
		return &Verdict{Op: OpFaults, Digest: e.digest, Property: e.p.Name(), Faults: &FaultsVerdict{
			Mode:       e.mode.String(),
			Faults:     rep.Faults,
			Detectable: rep.Detectable,
			Detected:   rep.Detected,
			Coverage:   rep.Coverage(),
		}}, nil
	}
	return minsetVerdict(ctx, e, w)
}

// canonical returns the entry's canonical network: the one resolve
// parsed or, after a resolve-memo hit, the request text resolved again
// under its op's cap. Resolution is deterministic, so that is the
// network the memo's digest names.
func (s *Session) canonical(e *entry) (*network.Network, error) {
	if e.w != nil {
		return e.w, nil
	}
	w, _, err := e.req.resolve(s.lineCap(e.op))
	return w, err
}

// checkProgram runs the verify engine for one compiled program: the
// minimal test set or the exhaustive universe.
func checkProgram(ctx context.Context, prog *eval.Program, p Property, exhaustive bool) (Result, error) {
	if exhaustive {
		return verify.GroundTruthProgramCtx(ctx, prog, p)
	}
	return verify.VerdictProgramCtx(ctx, prog, p)
}

func checkVerdict(digest, prop string, exhaustive bool, r Result) *Verdict {
	cv := &CheckVerdict{Exhaustive: exhaustive, Holds: r.Holds, TestsRun: r.TestsRun}
	if !r.Holds {
		cv.Counterexample = r.Counterexample.String()
		cv.Output = r.Output.String()
	}
	return &Verdict{Op: OpVerify, Digest: digest, Property: prop, Check: cv}
}

// minsetNodeBudget caps the exact hitting-set branch and bound per
// request; exhausted budgets fall back to the (still valid) greedy
// witness with exact=false.
const minsetNodeBudget = 2_000_000

// minsetVerdict computes an OpMinset entry's verdict on its canonical
// network w.
func minsetVerdict(ctx context.Context, e *entry, w *network.Network) (*Verdict, error) {
	m, err := faults.DetectionMatrixCtx(ctx, w, nil, faults.Enumerate(w), e.p.BinaryTests, e.mode)
	if err != nil {
		return nil, err
	}
	var picks []int
	exact := false
	if e.req.Exact {
		// Deterministic witness: the exact solver runs sequential.
		picks, exact, err = m.ExactMinimalDetectingSetCtx(ctx, minsetNodeBudget, 1)
		if err != nil {
			return nil, err
		}
	}
	if picks == nil {
		picks = m.MinimalDetectingSet()
	}
	mv := &MinsetVerdict{
		Mode:       e.mode.String(),
		Faults:     len(m.Faults),
		Detectable: m.Detectable.Count(),
		Detected:   m.Detected().Count(),
		FullTests:  len(m.Tests),
		Size:       len(picks),
		Exact:      exact,
		Tests:      make([]string, 0, len(picks)),
	}
	for _, t := range picks {
		mv.Tests = append(mv.Tests, m.Tests[t].String())
	}
	return &Verdict{Op: OpMinset, Digest: e.digest, Property: e.p.Name(), Minset: mv}, nil
}

// fillRequest is the probe form of a wire request: no correlation ID,
// the op always explicit.
func fillRequest(req *Request, op string) Request {
	probe := *req
	probe.ID = ""
	probe.Op = op
	return probe
}

// adopt validates the fill hook's answer at index i: a peer's verdict
// is adopted only if it is for the same operation and the same
// canonical digest (a confused or stale peer must never poison the
// cache). The adopted copy is stripped of correlation and provenance
// — it enters the cache exactly as a computed verdict would. nil
// means not adopted, including a hook that answered short.
func adopt(answers []*Verdict, i int, op, digest string) *Verdict {
	if i >= len(answers) {
		return nil
	}
	v := answers[i]
	if v == nil || v.Op != op || v.Digest != digest {
		return nil
	}
	cp := *v
	cp.ID, cp.Source = "", ""
	return &cp
}

// Lookup is the fill-only read path of the cluster: it reports the
// verdict cached for req — resolving and key-building exactly like Do
// — WITHOUT computing, coalescing, or consulting peers, and without
// touching the op counters. sortnetd answers X-Sortnetd-Fill probes
// from it, which is what makes peer fill structurally loop-free: a
// probe can only ever read a sibling's cache, never start work there.
func (s *Session) Lookup(req Request) (*Verdict, bool) {
	e := entry{req: req}
	if s.results == nil || !s.named(&e) || s.resolve(&e) != nil {
		return nil, false
	}
	if v, ok := s.results.Get(e.key); ok {
		if verdict, ok := v.(*Verdict); ok {
			return withSource(verdict, "hit"), true
		}
	}
	return nil, false
}

// withSource stamps how the verdict was obtained on a shallow copy
// (cached Verdicts are shared and must stay immutable).
func withSource(v *Verdict, source string) *Verdict {
	cp := *v
	cp.Source = source
	return &cp
}

// MarshalVerdict renders the wire body of a Verdict (the exact bytes
// sortnetd sends). It uses the hand-rolled append encoder, which the
// wire tests pin byte-identical to json.Marshal.
func MarshalVerdict(v *Verdict) ([]byte, error) { return AppendVerdict(nil, v), nil }

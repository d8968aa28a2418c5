package sortnets

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"sortnets/internal/canon"
	"sortnets/internal/eval"
	"sortnets/internal/faults"
	"sortnets/internal/network"
	"sortnets/internal/streamtab"
	"sortnets/internal/verify"
)

// Session is the context-aware verdict engine of the package and its
// one verdict surface: a reusable handle owning a compiled-program
// cache (keyed on the canonical digest of internal/canon), a verdict
// cache, a coalescing worker pool, and default options. Library
// callers and sortnetd's POST /do ask it through one request model:
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
// property, flags) and programs by digest, so repeated requests for
// structurally equivalent circuits — same circuit, parallel layers
// interleaved differently — share one compilation and one verdict.
// Everything that feeds the cache is deterministic (single-worker
// engines, stream-order counterexamples, deterministic greedy/solver
// tie-breaks), so cached, coalesced and recomputed verdicts can
// never disagree. Do's cache/coalescing pipeline is exactly the one
// sortnetd serves over HTTP: the semantics are identical in-process
// and over the wire.
//
// Worker semantics (the ONE rule, used by every option, flag and
// function in the repository): 0 or negative means AUTOMATIC — a
// plain worker pool uses all cores, the streaming engine stays
// sequential below its work threshold and uses all cores above it; 1
// pins strictly sequential, deterministic execution; k > 1 forces
// exactly k workers.
type Session struct {
	workers       int
	cacheSize     int
	maxLines      int
	maxFaultLines int
	faultMode     faults.DetectMode
	streamTag     string
	stream        func(Property) VecIterator
	tables        *streamtab.Dir
	computeHook   func()
	fill          func(ctx context.Context, reqs []Request) []*Verdict

	results  *lru[any]           // verdict cache: key → *Verdict or typed result
	progs    *lru[*eval.Program] // digest → compiled healthy program
	resolved *lru[resolvedNet]   // network text → canonical form + digest

	poolOnce sync.Once
	pool     *pool

	uncached atomic.Int64 // unique-key source for uncacheable requests
	stats    sessionCounters
}

// Option configures a Session.
type Option func(*Session)

// WithWorkers sets the size of the Session's compute pool — how many
// verdicts may compute concurrently through Do (each on a
// deterministic single-worker engine). 0 or negative means automatic
// (all cores); 1 serializes; k > 1 forces exactly k. The typed
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

// WithTestStream overrides the binary test stream the Session's
// verify paths run, replacing each property's minimal test set with
// factory(p). tag names the stream in cache keys, so verdicts under
// different streams never alias; an empty tag disables verdict
// caching for the overridden stream. Use it to score alternative
// test families (e.g. a fault-selected subset) on the same engines.
func WithTestStream(tag string, factory func(p Property) VecIterator) Option {
	return func(s *Session) {
		s.streamTag = tag
		s.stream = factory
	}
}

// WithStreamTables points the Session at a directory of persisted
// minimal-test-stream tables (package streamtab). When the property
// of a verify, faults or minset request has a table on disk, its
// pre-enumerated (mmap-backed) stream replaces live enumeration —
// same vectors, same order, so verdicts and cache keys are unchanged;
// properties without a table fall back transparently. An explicit
// WithTestStream override always wins over tables.
func WithStreamTables(d *streamtab.Dir) Option {
	return func(s *Session) { s.tables = d }
}

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
// budget. Typed conveniences and explicit stream overrides never
// consult the hook; internal/serve installs it when sortnetd runs
// with -peers.
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
	// Programs and resolutions are tiny next to verdict payloads and
	// cap the serve path's hot-loop allocations (compilation and
	// parse/canonicalize/digest respectively), so they get serving-
	// sized caches regardless of the verdict-cache setting.
	s.progs = newLRU[*eval.Program](4096)
	s.resolved = newLRU[resolvedNet](8192)
	return s
}

// resolvedNet is one resolve-memo entry: the canonical network and
// digest for a network-text request form. Canonical networks are
// immutable once built (every downstream consumer — compile, fault
// enumeration, canonical formatting — only reads), so one entry is
// safe to share across requests and goroutines.
type resolvedNet struct {
	w      *network.Network
	digest string
}

// resolveRequest is Request.resolve behind the session's resolve
// memo: the text form's parse → untangle → canonicalize → sha256
// pipeline runs once per distinct network string, not once per
// request. The line cap is re-checked on every hit because the caps
// differ per op (verify vs faults/minset), with the error
// byte-identical to resolve's. Comparator-form and malformed
// requests pass straight through uncached.
func (s *Session) resolveRequest(req *Request, maxLines int) (*network.Network, string, error) {
	if req.Network == "" || req.Comparators != nil || req.Lines > 0 {
		return req.resolve(maxLines)
	}
	if r, ok := s.resolved.Get(req.Network); ok {
		if r.w.N > maxLines {
			return nil, "", lineLimitError(r.w.N, maxLines)
		}
		return r.w, r.digest, nil
	}
	w, digest, err := req.resolve(maxLines)
	if err == nil {
		s.resolved.Add(req.Network, resolvedNet{w: w, digest: digest})
	}
	return w, digest, err
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
	op := req.Op
	if op == "" {
		op = OpVerify
	}
	ctrs := s.stats.forOp(op)
	if ctrs == nil {
		s.stats.unknown.requests.Add(1)
		s.stats.unknown.errors.Add(1)
		return nil, badRequest("unknown op %q (want %s, %s or %s)", req.Op, OpVerify, OpFaults, OpMinset)
	}
	ctrs.requests.Add(1)
	v, err := s.dispatch(ctx, op, &req, ctrs)
	switch {
	case err == nil:
		stampID(v, req.ID)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		ctrs.canceled.Add(1)
	default:
		ctrs.errors.Add(1)
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

func (s *Session) dispatch(ctx context.Context, op string, req *Request, ctrs *opCounters) (*Verdict, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch op {
	case OpVerify:
		return s.doVerify(ctx, req, ctrs)
	case OpFaults:
		return s.doFaults(ctx, req, ctrs)
	default:
		return s.doMinset(ctx, req, ctrs)
	}
}

func (s *Session) doVerify(ctx context.Context, req *Request, ctrs *opCounters) (*Verdict, error) {
	w, digest, err := s.resolveRequest(req, s.maxLines)
	if err != nil {
		return nil, err
	}
	p, err := propertyFor(req.Property, w.N, req.K)
	if err != nil {
		return nil, err
	}
	return s.doVerifyResolved(ctx, ctrs, req, w, digest, p, req.Exhaustive)
}

// doVerifyResolved is doVerify past resolution — the entry point
// DoBatch uses for verify entries it has already canonicalized (and
// decided not to group), so a batch never parses a network twice.
// req is the wire request to offer the cluster fill hook; nil skips
// fill (DoBatch has already consulted it for the whole batch).
func (s *Session) doVerifyResolved(ctx context.Context, ctrs *opCounters, req *Request, w *network.Network, digest string, p verify.Property, exhaustive bool) (*Verdict, error) {
	key := s.verifyKey(digest, p.Name(), exhaustive)
	return s.cached(ctx, ctrs, key, s.withPeerFill(ctrs, req, OpVerify, digest, func(cctx context.Context) (*Verdict, error) {
		r, err := s.checkProgram(cctx, s.program(digest, w), p, exhaustive)
		if err != nil {
			return nil, err
		}
		return checkVerdict(digest, p.Name(), exhaustive, r), nil
	}))
}

// The cache keys are plain concatenations (byte-identical to the
// historical fmt.Sprintf forms, without the reflection allocations —
// they are built once per request on the serve hot path).

func (s *Session) verifyKey(digest, prop string, exhaustive bool) string {
	key := "verify|" + digest + "|" + prop + "|exhaustive=" + strconv.FormatBool(exhaustive)
	if s.stream != nil {
		if s.streamTag == "" {
			return "" // unnamed override: uncacheable
		}
		key += "|stream=" + s.streamTag
	}
	return key
}

func faultsKey(digest string, p verify.Property, mode faults.DetectMode) string {
	return "faults|" + digest + "|" + p.Name() + "|" + mode.String()
}

func minsetKey(digest string, p verify.Property, mode faults.DetectMode, exact bool) string {
	return "minset|" + digest + "|" + p.Name() + "|" + mode.String() + "|exact=" + strconv.FormatBool(exact)
}

// tableFor maps a paper property to its persisted stream table, when
// the session has a table directory and the directory has the table.
func (s *Session) tableFor(p Property) (*streamtab.Table, bool) {
	if s.tables == nil {
		return nil, false
	}
	switch q := p.(type) {
	case verify.Sorter:
		return s.tables.Lookup("sorter", q.N, 0)
	case verify.Selector:
		return s.tables.Lookup("selector", q.N, q.K)
	case verify.Merger:
		return s.tables.Lookup("merger", q.N, 0)
	}
	return nil, false
}

// binaryTests picks the minimal binary test stream for p: an explicit
// WithTestStream override first, then a persisted stream table, then
// live enumeration. Tables hold exactly the live stream in exactly
// stream order, so the choice never changes a verdict.
func (s *Session) binaryTests(p Property) VecIterator {
	if s.stream != nil {
		return s.stream(p)
	}
	if t, ok := s.tableFor(p); ok {
		return t.Iter()
	}
	return p.BinaryTests()
}

// binaryTestsFactory is binaryTests as a restartable factory, for the
// fault paths: Measure draws the stream once per chunk of the fault
// list (at most NumCPU chunks, each judging all its fault variants
// against one load of every block), the detection matrix once per
// request. WithTestStream overrides deliberately do NOT apply here
// (they never have: the option scores alternative VERIFY streams;
// fault coverage is defined over the paper's minimal test set), but
// tables do, so those draws replay a table instead of re-enumerating.
func (s *Session) binaryTestsFactory(p Property) func() VecIterator {
	if t, ok := s.tableFor(p); ok {
		return t.Iter
	}
	return p.BinaryTests
}

// checkProgram runs the verify engine for one compiled program:
// minimal test set (table-backed when available, or the session's
// stream override) or the exhaustive universe.
func (s *Session) checkProgram(ctx context.Context, prog *eval.Program, p Property, exhaustive bool) (Result, error) {
	if exhaustive {
		return verify.GroundTruthProgramCtx(ctx, prog, p)
	}
	if s.stream != nil || s.tables != nil {
		if prog.N() != p.Lines() {
			panic(fmt.Sprintf("sortnets: program has %d lines, property wants %d", prog.N(), p.Lines()))
		}
		v, err := eval.New(prog, 1).RunCtx(ctx, s.binaryTests(p), verify.JudgeFor(p))
		if err != nil {
			return Result{}, err
		}
		return Result{Holds: v.Holds, TestsRun: v.TestsRun, Counterexample: v.In, Output: v.Out}, nil
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

// faultArgs validates the shared OpFaults/OpMinset request shape.
func (s *Session) faultArgs(req *Request) (*network.Network, string, Property, faults.DetectMode, error) {
	w, digest, err := s.resolveRequest(req, s.maxFaultLines)
	if err != nil {
		return nil, "", nil, 0, err
	}
	p, err := propertyFor(req.Property, w.N, req.K)
	if err != nil {
		return nil, "", nil, 0, err
	}
	mode := s.faultMode
	if req.Mode != "" {
		if mode, err = detectModeFor(req.Mode); err != nil {
			return nil, "", nil, 0, err
		}
	}
	if mode == faults.ByProperty {
		if _, ok := p.(verify.Sorter); !ok {
			return nil, "", nil, 0, badRequest("by-property detection judges outputs as a sorter; use property=sorter or mode=by-golden")
		}
	}
	return w, digest, p, mode, nil
}

func (s *Session) doFaults(ctx context.Context, req *Request, ctrs *opCounters) (*Verdict, error) {
	w, digest, p, mode, err := s.faultArgs(req)
	if err != nil {
		return nil, err
	}
	return s.doFaultsResolved(ctx, ctrs, req, w, digest, p, mode)
}

// doFaultsResolved is doFaults past resolution (see doVerifyResolved).
func (s *Session) doFaultsResolved(ctx context.Context, ctrs *opCounters, req *Request, w *network.Network, digest string, p verify.Property, mode faults.DetectMode) (*Verdict, error) {
	key := faultsKey(digest, p, mode)
	return s.cached(ctx, ctrs, key, s.withPeerFill(ctrs, req, OpFaults, digest, func(cctx context.Context) (*Verdict, error) {
		rep, err := faults.MeasureCtx(cctx, w, s.program(digest, w), faults.Enumerate(w), s.binaryTestsFactory(p), mode)
		if err != nil {
			return nil, err
		}
		return &Verdict{Op: OpFaults, Digest: digest, Property: p.Name(), Faults: &FaultsVerdict{
			Mode:       mode.String(),
			Faults:     rep.Faults,
			Detectable: rep.Detectable,
			Detected:   rep.Detected,
			Coverage:   rep.Coverage(),
		}}, nil
	}))
}

// minsetNodeBudget caps the exact hitting-set branch and bound per
// request; exhausted budgets fall back to the (still valid) greedy
// witness with exact=false.
const minsetNodeBudget = 2_000_000

func (s *Session) doMinset(ctx context.Context, req *Request, ctrs *opCounters) (*Verdict, error) {
	w, digest, p, mode, err := s.faultArgs(req)
	if err != nil {
		return nil, err
	}
	return s.doMinsetResolved(ctx, ctrs, req, w, digest, p, mode, req.Exact)
}

// doMinsetResolved is doMinset past resolution (see doVerifyResolved).
func (s *Session) doMinsetResolved(ctx context.Context, ctrs *opCounters, req *Request, w *network.Network, digest string, p verify.Property, mode faults.DetectMode, exactReq bool) (*Verdict, error) {
	key := minsetKey(digest, p, mode, exactReq)
	return s.cached(ctx, ctrs, key, s.withPeerFill(ctrs, req, OpMinset, digest, func(cctx context.Context) (*Verdict, error) {
		m, err := faults.DetectionMatrixCtx(cctx, w, s.program(digest, w), faults.Enumerate(w), s.binaryTestsFactory(p), mode)
		if err != nil {
			return nil, err
		}
		var picks []int
		exact := false
		if exactReq {
			// Deterministic witness: the exact solver runs sequential.
			picks, exact, err = m.ExactMinimalDetectingSetCtx(cctx, minsetNodeBudget, 1)
			if err != nil {
				return nil, err
			}
		}
		if picks == nil {
			picks = m.MinimalDetectingSet()
		}
		mv := &MinsetVerdict{
			Mode:       mode.String(),
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
		return &Verdict{Op: OpMinset, Digest: digest, Property: p.Name(), Minset: mv}, nil
	}))
}

// withPeerFill wraps a single-shot compute closure with the cluster
// fill hook: offer the one request to the peers first, adopt a valid
// answer, else compute locally. The compute counter and hook live
// HERE, on the local branch, so an adopted verdict is a miss that
// cost no compute — the property the cluster's "sum of per-shard
// computes == distinct work" accounting rests on. Fill is skipped
// without a hook, without a wire request to forward, or under a
// stream override (an overridden stream's verdicts are not the peers'
// verdicts). Runs inside the pooled call, so the cache re-check, the
// cache fill, and single-flight all apply unchanged.
func (s *Session) withPeerFill(ctrs *opCounters, req *Request, op, digest string, compute func(context.Context) (*Verdict, error)) func(context.Context) (*Verdict, error) {
	counted := func(cctx context.Context) (*Verdict, error) {
		ctrs.computes.Add(1)
		if s.computeHook != nil {
			s.computeHook()
		}
		return compute(cctx)
	}
	if s.fill == nil || req == nil || s.stream != nil {
		return counted
	}
	return func(cctx context.Context) (*Verdict, error) {
		if v := adopt(s.fill(cctx, []Request{fillRequest(req, op)}), 0, op, digest); v != nil {
			return v, nil
		}
		return counted(cctx)
	}
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
	if s.results == nil {
		return nil, false
	}
	op := req.Op
	if op == "" {
		op = OpVerify
	}
	var key string
	switch op {
	case OpVerify:
		w, digest, err := s.resolveRequest(&req, s.maxLines)
		if err != nil {
			return nil, false
		}
		p, err := propertyFor(req.Property, w.N, req.K)
		if err != nil {
			return nil, false
		}
		key = s.verifyKey(digest, p.Name(), req.Exhaustive)
	case OpFaults, OpMinset:
		_, digest, p, mode, err := s.faultArgs(&req)
		if err != nil {
			return nil, false
		}
		if op == OpFaults {
			key = faultsKey(digest, p, mode)
		} else {
			key = minsetKey(digest, p, mode, req.Exact)
		}
	default:
		return nil, false
	}
	if key == "" {
		return nil, false
	}
	if v, ok := s.results.Get(key); ok {
		if verdict, ok := v.(*Verdict); ok {
			return withSource(verdict, "hit"), true
		}
	}
	return nil, false
}

// cached runs the cache → coalesce → compute pipeline for one Do
// request. compute must be deterministic: its verdict is stored and
// replayed (and, over the wire, marshals byte-identically). An empty
// key skips the cache AND coalescing (distinct uncacheable requests
// must never share an in-flight result) but still runs on the pool.
func (s *Session) cached(ctx context.Context, ctrs *opCounters, key string, compute func(context.Context) (*Verdict, error)) (*Verdict, error) {
	cacheable := key != ""
	if !cacheable {
		// A unique key: uncacheable requests run on the pool but must
		// never coalesce with each other.
		key = "!uncached|" + strconv.FormatInt(s.uncached.Add(1), 10)
	}
	if s.results != nil && cacheable {
		if v, ok := s.results.Get(key); ok {
			ctrs.hits.Add(1)
			return withSource(v.(*Verdict), "hit"), nil
		}
	}
	ctrs.misses.Add(1)
	return s.pooled(ctx, ctrs, key, cacheable, compute)
}

// pooled is cached's coalesce → compute tail, re-entered on the rare
// abandoned-submission retry.
func (s *Session) pooled(ctx context.Context, ctrs *opCounters, key string, cacheable bool, compute func(context.Context) (*Verdict, error)) (*Verdict, error) {
	v, coalesced, err := s.startPool().do(ctx, key, func(cctx context.Context) (*Verdict, error) {
		// Re-check the cache from inside the registered call: a twin
		// that was in flight during our lookup may have filled the
		// cache and left the inflight table in the gap before our
		// registration. Its Add happens before its deregistration, so
		// if we registered fresh, the result is already visible here —
		// without this, two "concurrent identical" requests could both
		// compute.
		if s.results != nil && cacheable {
			if v, ok := s.results.Get(key); ok {
				return v.(*Verdict), nil
			}
		}
		// The compute counter and hook fire inside compute itself (the
		// withPeerFill wrapper): a peer-filled verdict is a miss that
		// cost no local compute.
		v, err := compute(cctx)
		if err == nil && s.results != nil && cacheable {
			// Fill the cache on the pool worker, before the in-flight
			// entry is dropped, so there is no window where neither
			// the cache nor the inflight table knows the result.
			s.results.Add(key, v)
		}
		return v, err
	}, func() { ctrs.coalesced.Add(1) })
	if err != nil {
		// The compute context dies only when every waiter is gone; a
		// waiter that is still here was cancelled itself. Either way
		// the caller's context error is the honest answer.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		if errors.Is(err, errSubmitterGone) {
			// We coalesced onto a call whose submitter abandoned it
			// before a worker picked it up; our context is fine, so
			// resubmit (the dead call has left the inflight table).
			return s.pooled(ctx, ctrs, key, cacheable, compute)
		}
		return nil, err
	}
	if coalesced {
		return withSource(v, "coalesced"), nil
	}
	return withSource(v, "miss"), nil
}

// withSource stamps how the verdict was obtained on a shallow copy
// (cached Verdicts are shared and must stay immutable).
func withSource(v *Verdict, source string) *Verdict {
	cp := *v
	cp.Source = source
	return &cp
}

// program returns the compiled healthy program for a canonical
// network, sharing compilations across operations and properties via
// the digest-keyed program cache. Programs are immutable, so a cached
// one is safe for concurrent engines.
func (s *Session) program(digest string, w *network.Network) *eval.Program {
	if p, ok := s.progs.Get(digest); ok {
		return p
	}
	p := eval.Compile(w)
	s.progs.Add(digest, p)
	return p
}

// resolveNetwork canonicalizes a trusted in-process network and
// returns its cached program: the convenience-path counterpart of
// Request.resolve (no line caps — the caller already holds the
// network).
func (s *Session) resolveNetwork(w *network.Network) (*network.Network, string, *eval.Program) {
	c, digest := canon.Canonicalize(w)
	return c, digest, s.program(digest, c)
}

// MarshalVerdict renders the wire body of a Verdict (the exact bytes
// sortnetd sends). It uses the hand-rolled append encoder, which the
// wire tests pin byte-identical to json.Marshal.
func MarshalVerdict(v *Verdict) ([]byte, error) { return AppendVerdict(nil, v), nil }

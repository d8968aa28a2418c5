package sortnets

import (
	"fmt"

	"sortnets/internal/canon"
	"sortnets/internal/faults"
	"sortnets/internal/network"
	"sortnets/internal/verify"
)

// The ONE request/verdict model of the package: every way of asking
// for a Chung–Ravikumar verdict — the in-process Session, the
// sortnetd HTTP service, and the remote client — speaks Request and
// Verdict. A Request names a network (text form or comparator pairs),
// an operation, and its options; a Verdict carries the canonical
// digest plus exactly one operation-specific section. The JSON tags
// ARE the wire format: internal/serve decodes HTTP bodies straight
// into Request and marshals Verdict back, and sortnets/client does
// the inverse, so a caller can swap a *Session for a *client.Client
// behind the Doer interface without touching request-shaping code.

// Operations a Request can ask for.
const (
	// OpVerify asks for a property verdict from the minimal test set
	// (or the exhaustive 2ⁿ ground truth).
	OpVerify = "verify"
	// OpFaults asks for fault coverage of the property's minimal test
	// set over the standard single-fault universe.
	OpFaults = "faults"
	// OpMinset asks for a minimal subset of the property's test set
	// that still detects every fault the full set detects.
	OpMinset = "minset"
)

// Request is the unified verdict request. The network is given either
// as the paper's text form ("n=4: [1,3][2,4]...", standard
// comparators only) or as an explicit lines + comparator-pair list
// (1-based; a pair [b,a] with b > a means min-to-b / max-to-a and is
// untangled into standard form — circuits whose untangling leaves a
// non-identity lane relabeling are rejected). An empty Op means
// OpVerify; an empty Property means "sorter".
//
// ID is an optional caller-chosen tag, echoed verbatim on the Verdict
// (and on the BatchVerdict line in NDJSON streaming) and omitted from
// the wire when empty. It is correlation only: it never enters cache
// keys, so two requests differing only in ID share one verdict.
type Request struct {
	ID          string   `json:"id,omitempty"`
	Op          string   `json:"op,omitempty"`
	Network     string   `json:"network,omitempty"`
	Lines       int      `json:"lines,omitempty"`
	Comparators [][2]int `json:"comparators,omitempty"`
	Property    string   `json:"property,omitempty"` // sorter | selector | merger
	K           int      `json:"k,omitempty"`        // selector arity
	Exhaustive  bool     `json:"exhaustive,omitempty"`
	Mode        string   `json:"mode,omitempty"` // faults/minset: by-property | by-golden
	Exact       bool     `json:"exact,omitempty"`
}

// Verdict is the unified verdict: identity fields plus exactly one
// populated operation section. Marshaling a Verdict is deterministic,
// so a cached verdict replays byte-identically over the wire (modulo
// ID, which echoes the request's tag and is stamped per reply, never
// stored in the cache).
type Verdict struct {
	ID       string         `json:"id,omitempty"`
	Op       string         `json:"op"`
	Digest   string         `json:"digest"`
	Property string         `json:"property"`
	Check    *CheckVerdict  `json:"check,omitempty"`
	Faults   *FaultsVerdict `json:"faults,omitempty"`
	Minset   *MinsetVerdict `json:"minset,omitempty"`

	// Source reports how the verdict was obtained — "hit" (verdict
	// cache), "coalesced" (joined an identical in-flight
	// computation), or "miss" (computed). It is observability, not
	// payload: excluded from the wire body (the HTTP layer carries it
	// in the X-Sortnetd-Cache header).
	Source string `json:"-"`
}

// CheckVerdict is the OpVerify section.
type CheckVerdict struct {
	Exhaustive     bool   `json:"exhaustive,omitempty"`
	Holds          bool   `json:"holds"`
	TestsRun       int    `json:"testsRun"`
	Counterexample string `json:"counterexample,omitempty"`
	Output         string `json:"output,omitempty"`
}

// FaultsVerdict is the OpFaults section.
type FaultsVerdict struct {
	Mode       string  `json:"mode"`
	Faults     int     `json:"faults"`
	Detectable int     `json:"detectable"`
	Detected   int     `json:"detected"`
	Coverage   float64 `json:"coverage"`
}

// MinsetVerdict is the OpMinset section.
type MinsetVerdict struct {
	Mode       string   `json:"mode"`
	Faults     int      `json:"faults"`
	Detectable int      `json:"detectable"`
	Detected   int      `json:"detected"`
	FullTests  int      `json:"fullTests"`
	Size       int      `json:"size"`
	Exact      bool     `json:"exact"`
	Tests      []string `json:"tests"`
}

// RequestError is a caller-side failure (malformed network, unknown
// property, line limit, …). Status is an HTTP status code; the
// serving layer writes it verbatim and the client reconstructs it, so
// local and remote callers see the same typed error. The JSON tags
// are the NDJSON per-line error form ({"status":400,"error":"..."});
// a single-shot JSON request is answered with an {"error":"..."} body
// and the status on the HTTP response line.
//
// RetryAfter is the backpressure hint, in whole seconds, for the
// statuses that promise one (429, 503, 504): when to try again. Over
// HTTP it doubles as the Retry-After header; on NDJSON lines — which
// have no per-line headers — this field is the only carrier, so
// backpressure emitters must populate it (the retrycontract analyzer
// enforces this). Zero means "no hint" and is omitted from the wire.
type RequestError struct {
	Status     int    `json:"status"`
	Msg        string `json:"error"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

func (e *RequestError) Error() string { return e.Msg }

// PanicError is a recovered panic from a verdict computation: the
// compute pool converts an engine panic into this error instead of
// letting it kill the process, so one poisoned request costs its
// caller a 500 — not the daemon. The serving layer counts these as
// panics_recovered on /stats.
type PanicError struct {
	Val any // the recovered panic value
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sortnets: verdict compute panicked: %v", e.Val)
}

// Batch is a slice of Requests submitted as one round trip — the wire
// unit of the batch-first request model. Over HTTP it is encoded as
// NDJSON: one Request per line on POST /do with Content-Type
// application/x-ndjson, answered by one BatchVerdict per line.
type Batch []Request

// BatchVerdict is one batch entry's outcome on the wire: the entry's
// echoed id plus exactly one of Verdict (success) or Error (a
// per-entry *RequestError — a malformed entry never fails its
// neighbours or the connection). Source reports how a successful
// verdict was obtained ("hit", "coalesced", "miss"): NDJSON lines
// have no per-line headers, so the X-Sortnetd-Cache value rides in
// the body here.
type BatchVerdict struct {
	ID      string        `json:"id,omitempty"`
	Verdict *Verdict      `json:"verdict,omitempty"`
	Error   *RequestError `json:"error,omitempty"`
	Source  string        `json:"source,omitempty"`
}

func badRequest(format string, args ...any) error {
	return &RequestError{Status: 400, Msg: fmt.Sprintf(format, args...)}
}

// maxComparators bounds accepted circuit size (memory and compile
// time are linear in it; nothing legitimate is near this).
const maxComparators = 1 << 14

// resolve parses, untangles, canonicalizes and digests the request's
// network. maxLines is the operation's line-count cap and is enforced
// BEFORE any O(lines) allocation (Untangle's lane map, Normalize's
// scratch), so an absurd "n=2000000000:" request is rejected, not
// materialized. The returned network is the canonical (normalized)
// form. Every step allocates exact-size slices, so a resolve costs a
// fixed handful of allocations whatever the comparator count: six for
// the text form (two for network.Parse, four for canon.Canonicalize),
// and for the comparator form the 0-based pair slice, which one loop
// validates and fills, plus canon.Untangle's three and
// Canonicalize's four.
func (r *Request) resolve(maxLines int) (*network.Network, string, error) {
	var w *network.Network
	switch {
	case r.Network != "" && (r.Comparators != nil || r.Lines > 0):
		return nil, "", badRequest("give either network text or lines+comparators, not both")
	case r.Network != "":
		parsed, err := network.Parse(r.Network)
		if err != nil {
			return nil, "", badRequest("%v", err)
		}
		if parsed.N > maxLines {
			return nil, "", lineLimitError(parsed.N, maxLines)
		}
		w = parsed
	case r.Comparators != nil || r.Lines > 0:
		if r.Lines < 1 {
			return nil, "", badRequest("comparator form needs a positive lines count")
		}
		if r.Lines > maxLines {
			return nil, "", lineLimitError(r.Lines, maxLines)
		}
		// Validate in the client's 1-based coordinates before the
		// 0-based conversion, so diagnostics quote the pair as sent.
		pairs := make([][2]int, len(r.Comparators))
		for i, p := range r.Comparators {
			if p[0] < 1 || p[1] < 1 || p[0] > r.Lines || p[1] > r.Lines || p[0] == p[1] {
				return nil, "", badRequest("comparator %d [%d,%d] invalid on %d lines (lines are 1-based)",
					i, p[0], p[1], r.Lines)
			}
			pairs[i] = [2]int{p[0] - 1, p[1] - 1}
		}
		untangled, relabel, err := canon.Untangle(r.Lines, pairs)
		if err != nil {
			return nil, "", badRequest("%v", err)
		}
		if !canon.IsIdentity(relabel) {
			return nil, "", &RequestError{Status: 422, Msg: fmt.Sprintf(
				"tangled network: outputs permuted by %v relative to any standard network (in particular it is not a sorter)", relabel)}
		}
		w = untangled
	default:
		return nil, "", badRequest("missing network")
	}
	if len(w.Comps) > maxComparators {
		return nil, "", badRequest("network has %d comparators, limit %d", len(w.Comps), maxComparators)
	}
	c, digest := canon.Canonicalize(w)
	return c, digest, nil
}

func lineLimitError(n, limit int) error {
	return badRequest("network has %d lines, service limit is %d", n, limit)
}

// shardKeyLineCap is ShardKey's line-count cap. Routing must accept
// anything some server might (each server enforces its OWN configured
// cap on arrival), so this only guards the resolver against absurd
// allocation — far beyond any deployed -max-lines.
const shardKeyLineCap = 1 << 16

// ShardKey returns the request's cluster routing key: the canonical
// digest of its network, the same internal/canon sha256 every
// sortnetd caches verdicts under. It is a pure function of the
// network's behavior (text form, comparator form, and any layer
// reordering of the same circuit all yield one digest), so every
// client and shard derives the same owner with no coordination.
// ok is false when the network cannot be resolved (malformed,
// tangled, oversized); such requests have no stable key — route them
// anywhere and let the owning shard reject them properly.
func (r *Request) ShardKey() (key string, ok bool) {
	_, digest, err := r.resolve(shardKeyLineCap)
	if err != nil {
		return "", false
	}
	return digest, true
}

// propertyFor maps the request's property name to a verify.Property.
func propertyFor(name string, n, k int) (verify.Property, error) {
	switch name {
	case "", "sorter":
		return verify.Sorter{N: n}, nil
	case "selector":
		if k < 1 || k > n {
			return nil, badRequest("selector needs 1 ≤ k ≤ n, got k=%d n=%d", k, n)
		}
		return verify.Selector{N: n, K: k}, nil
	case "merger":
		if n%2 != 0 {
			return nil, badRequest("merger property needs an even line count, network has %d", n)
		}
		return verify.Merger{N: n}, nil
	}
	return nil, badRequest("unknown property %q", name)
}

// wireProperty is the inverse of propertyFor: the wire name of a
// built-in property, or ok=false for a caller-defined one (which has
// no wire form and is never verdict-cached).
func wireProperty(p verify.Property) (name string, ok bool) {
	switch p.(type) {
	case verify.Sorter, verify.Selector, verify.Merger:
		return p.Name(), true
	}
	return "", false
}

func detectModeFor(name string) (faults.DetectMode, error) {
	switch name {
	case "", "by-property":
		return faults.ByProperty, nil
	case "by-golden":
		return faults.ByGolden, nil
	}
	return 0, badRequest("unknown detection mode %q (want by-property or by-golden)", name)
}

// Package serve is the HTTP face of the sortnets.Session: a thin
// adapter that decodes request bodies into the shared
// sortnets.Request, calls Session.Do under the request's context
// (client disconnects cancel the underlying engines and release
// their pool slot), and encodes the shared sortnets.Verdict back.
// The service layer owns NO verdict logic of its own — caching,
// coalescing, canonicalization and computation all live in the
// Session, so the semantics are identical in-process and over the
// wire.
//
// The HTTP surface (http.go) is POST /do — every op, single-shot JSON
// or NDJSON batches — plus GET /healthz, /livez and /stats.
package serve

import (
	"net/http"
	"sync/atomic"
	"time"

	"sortnets"
	"sortnets/internal/streamtab"
)

// Config sizes the service.
type Config struct {
	// Workers is the Session pool size; 0 or negative means
	// automatic (GOMAXPROCS). It bounds how many verdicts compute
	// concurrently.
	Workers int
	// CacheSize is the verdict-cache capacity in entries; ≤ 0 means
	// 4096.
	CacheSize int
	// MaxLines caps the line count accepted by verify requests (their
	// minimal test sets grow like 2ⁿ for sorters); ≤ 0 means 20.
	MaxLines int
	// MaxFaultLines caps the line count accepted by faults and minset
	// requests (fault detectability sweeps the 2ⁿ universe per
	// fault); ≤ 0 means 12.
	MaxFaultLines int
	// StreamTabDir, when non-empty, is a directory of persisted
	// minimal-test-stream tables (package streamtab); properties with
	// a valid table on disk replay its pre-enumerated stream instead
	// of live enumeration. Missing or invalid tables fall back
	// transparently.
	StreamTabDir string
	// MaxInflight bounds the requests admitted past the HTTP layer at
	// once (the in-flight gate's slot count); ≤ 0 means
	// max(64, 8 × workers). Callers beyond the bound wait up to
	// QueueWait for a slot and are then shed with 429 + Retry-After.
	MaxInflight int
	// QueueWait is how long an over-admission request may wait for an
	// in-flight slot before being shed; ≤ 0 means 100ms.
	QueueWait time.Duration
	// ComputeTimeout bounds each admitted request's computation;
	// exceeding it answers 504 and releases the slot. 0 disables.
	ComputeTimeout time.Duration
	// OnCompute, when set (tests only), runs on the Session's pool
	// worker immediately before each underlying computation.
	OnCompute func()
	// ShardID names this node in a cluster. It is stamped on outgoing
	// peer probes as the loop-prevention hop marker (X-Sortnetd-Peer)
	// and echoed on /stats. Optional — but set it whenever Peers is.
	ShardID string
	// Peers are sibling shard base URLs consulted fill-only (in this
	// order) on verdict-cache misses before computing locally: one
	// NDJSON probe per peer per batch. Empty disables the peer plane.
	// See peer.go for the protocol.
	Peers []string
	// PeerTimeout bounds ONE consultation — a whole batch's misses, or
	// a single-shot request's, across all peers together; ≤ 0 means
	// 100ms.
	PeerTimeout time.Duration
	// PeerHTTPClient substitutes the probes' *http.Client (tests).
	PeerHTTPClient *http.Client
}

// Service adapts HTTP to a sortnets.Session. Beyond decoding and
// encoding, it only keeps the count of requests that never reached
// the Session (wrong method, malformed body or line).
type Service struct {
	cfg    Config
	sess   *sortnets.Session
	tables *streamtab.Dir // non-nil iff cfg.StreamTabDir was set

	// httpRejected counts requests rejected before Session.Do; /stats
	// reports them as verify requests, the op a body defaults to.
	httpRejected atomic.Int64

	// Resilience plane (admission.go): the in-flight gate, drain
	// state, and the counters behind /stats "resilience".
	slots           chan struct{}
	queueWait       time.Duration
	draining        atomic.Bool
	inflight        atomic.Int64 // gauge: slots currently held
	shed            atomic.Int64 // requests refused with 429 by the gate
	retriesSeen     atomic.Int64 // requests carrying a client retry marker
	handlerPanics   atomic.Int64 // panics recovered on the handler goroutine
	computeTimeouts atomic.Int64 // requests answered 504 by ComputeTimeout

	// Cluster fill plane (peer.go): sibling probes in both directions.
	peer peerPlane
}

// NewService builds and starts a service; Close releases its
// Session's pool.
func NewService(cfg Config) *Service {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4096
	}
	opts := []sortnets.Option{
		sortnets.WithWorkers(cfg.Workers),
		sortnets.WithCache(cfg.CacheSize),
		sortnets.WithMaxLines(cfg.MaxLines),
		sortnets.WithMaxFaultLines(cfg.MaxFaultLines),
	}
	if cfg.OnCompute != nil {
		opts = append(opts, sortnets.WithComputeHook(cfg.OnCompute))
	}
	var tables *streamtab.Dir
	if cfg.StreamTabDir != "" {
		tables = streamtab.OpenDir(cfg.StreamTabDir)
		opts = append(opts, sortnets.WithStreamTables(tables))
	}
	s := &Service{cfg: cfg, tables: tables}
	// The fill hook closes over s, so peers wire up before the Session
	// is built (the hook is only ever invoked by Session computes).
	s.initPeers()
	if len(s.peer.urls) > 0 {
		opts = append(opts, sortnets.WithPeerFillBatch(s.peerFill))
	}
	s.sess = sortnets.NewSession(opts...)
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 8 * s.sess.Workers()
		if cfg.MaxInflight < 64 {
			cfg.MaxInflight = 64
		}
		s.cfg.MaxInflight = cfg.MaxInflight
	}
	if cfg.QueueWait <= 0 {
		s.cfg.QueueWait = 100 * time.Millisecond
	}
	s.slots = make(chan struct{}, s.cfg.MaxInflight)
	s.queueWait = s.cfg.QueueWait
	return s
}

// Session exposes the underlying Session (the same handle an
// in-process caller would use).
func (s *Service) Session() *sortnets.Session { return s.sess }

// Close stops the Session's pool workers and releases any stream-
// table mappings. No requests may be in flight.
func (s *Service) Close() {
	s.sess.Close()
	if s.tables != nil {
		s.tables.Close()
	}
}

// EndpointSnapshot is one op's counters in the /stats "endpoints"
// map, which is keyed by the op named in the request body.
type EndpointSnapshot struct {
	Requests  int64 `json:"requests"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Computes  int64 `json:"computes"`
	Canceled  int64 `json:"canceled"`
	Errors    int64 `json:"errors"`
}

// CacheSnapshot reports verdict-cache occupancy.
type CacheSnapshot struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Evictions int64 `json:"evictions"`
}

// ResilienceSnapshot is the /stats "resilience" section: the
// admission gate, drain state, and failure-containment counters.
type ResilienceSnapshot struct {
	// Inflight is the gauge of requests currently holding an
	// admission slot, bounded by MaxInflight.
	Inflight    int64 `json:"inflight"`
	MaxInflight int   `json:"max_inflight"`
	// Shed counts requests refused with 429 + Retry-After because no
	// slot freed within the queue-wait deadline.
	Shed int64 `json:"shed"`
	// RetriesSeen counts arriving requests that carried a client
	// retry marker (X-Sortnetd-Retry) — failover/retry traffic as
	// observed from the serving side.
	RetriesSeen int64 `json:"retries_seen"`
	// PanicsRecovered counts engine panics converted into error
	// responses (pool workers and handler goroutines combined)
	// instead of a process death.
	PanicsRecovered int64 `json:"panics_recovered"`
	// ComputeTimeouts counts requests answered 504 by the
	// per-request compute deadline.
	ComputeTimeouts int64 `json:"compute_timeouts"`
	Draining        bool  `json:"draining"`
}

// StatsSnapshot is the /stats response body. Batch reports the NDJSON
// pipeline: batches/entries seen, entries deduplicated within a
// batch, and entries computed through a shared grouped engine pass.
// PooledBytes gauges the buffer bytes retained by the NDJSON
// connection-scratch pool.
type StatsSnapshot struct {
	Endpoints   map[string]EndpointSnapshot `json:"endpoints"`
	Batch       sortnets.BatchStats         `json:"batch"`
	Cache       CacheSnapshot               `json:"cache"`
	Workers     int                         `json:"workers"`
	PooledBytes int64                       `json:"pooled_bytes"`
	Resilience  ResilienceSnapshot          `json:"resilience"`
	Peer        PeerSnapshot                `json:"peer"`
}

// Stats returns a point-in-time snapshot: the Session's per-op
// counters, keyed by the op named in the request body, with the HTTP
// layer's pre-dispatch rejections folded into verify's Requests and
// Errors.
func (s *Service) Stats() StatsSnapshot {
	ss := s.sess.Stats()
	eps := make(map[string]EndpointSnapshot, len(ss.Ops))
	for op, st := range ss.Ops {
		var rejected int64
		if op == sortnets.OpVerify {
			rejected = s.httpRejected.Load()
		}
		eps[op] = EndpointSnapshot{
			Requests:  st.Requests + rejected,
			Hits:      st.Hits,
			Misses:    st.Misses,
			Coalesced: st.Coalesced,
			Computes:  st.Computes,
			Canceled:  st.Canceled,
			Errors:    st.Errors + rejected,
		}
	}
	return StatsSnapshot{
		Endpoints: eps,
		Batch:     ss.Batch,
		Cache: CacheSnapshot{
			Entries:   ss.Cache.Entries,
			Capacity:  ss.Cache.Capacity,
			Evictions: ss.Cache.Evictions,
		},
		Workers:     ss.Workers,
		PooledBytes: PooledBytes(),
		Resilience: ResilienceSnapshot{
			Inflight:        s.inflight.Load(),
			MaxInflight:     s.cfg.MaxInflight,
			Shed:            s.shed.Load(),
			RetriesSeen:     s.retriesSeen.Load(),
			PanicsRecovered: ss.Panics + s.handlerPanics.Load(),
			ComputeTimeouts: s.computeTimeouts.Load(),
			Draining:        s.draining.Load(),
		},
		Peer: s.peerSnapshot(),
	}
}

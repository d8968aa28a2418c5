package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// traceHeader carries a call's trace id from the benchmark's client
// RoundTripper to its handler wrapper.
const traceHeader = "X-Costbench-Trace"

// span is one timed interval of one request. Spans of a request share
// Trace, the unit's id, which is also the id of its root span.
type span struct {
	Name    string        `json:"name"`
	Trace   uint64        `json:"trace"`
	ID      uint64        `json:"id"`
	Parent  uint64        `json:"parent,omitempty"`
	Start   time.Duration `json:"start_ns"` // since the tracer's epoch
	End     time.Duration `json:"end_ns"`
	Replica int           `json:"replica"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps a traced run's spans in memory. It records from the
// benchmark's own code only: a root span around each client.Pool call,
// a RoundTripper that stamps the trace id on the request, an
// http.Handler around Service.Handler() that opens serve.handler, a
// RoundTripper in serve.Config.PeerHTTPClient that times peer.probe,
// and the in-process replays.
type tracer struct {
	epoch      time.Time
	ids        atomic.Uint64
	mu         sync.Mutex
	spans      []span
	probing    atomic.Bool            // record peer.probe spans
	open       []atomic.Pointer[span] // per replica: its serve.handler in progress
	client     *http.Client           // the traced pool's
	transports []*http.Transport      // to release at the end
}

func newTracer(replicas int) *tracer {
	t := &tracer{epoch: time.Now(), open: make([]atomic.Pointer[span], replicas)}
	t.ids.Store(1 << 40) // above every trace id, which doubles as its root span's id
	base := clientTransport()
	t.transports = append(t.transports, base)
	t.client = &http.Client{Transport: traceRoundTripper{base}}
	return t
}

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) root(name string, id uint64, start, end time.Time) {
	t.add(span{Name: name, Trace: id, ID: id, Start: t.since(start), End: t.since(end)})
}

func (t *tracer) closeIdle() {
	for _, tr := range t.transports {
		tr.CloseIdleConnections()
	}
}

// write saves the spans of the given traces as JSON lines.
func (t *tracer) write(path string, keep map[uint64]bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if keep[s.Trace] {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type traceKey struct{}

func withTrace(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// traceRoundTripper stamps the call's trace id on every request the
// pool sends for it, retries included.
type traceRoundTripper struct{ base http.RoundTripper }

func (rt traceRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(traceKey{}).(uint64)
	if !ok {
		return rt.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	return rt.base.RoundTrip(r)
}

// handler opens a serve.handler span around each traced request that
// reaches replica's Service.Handler(). Fill probes between replicas
// carry no trace id and pass straight through.
func (t *tracer) handler(replica int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		s := &span{Name: "serve.handler", Trace: id, ID: t.ids.Add(1), Parent: id, Replica: replica, Start: t.since(time.Now())}
		t.open[replica].Store(s)
		next.ServeHTTP(w, r)
		t.open[replica].Store(nil)
		done := *s
		done.End = t.since(time.Now())
		t.add(done)
	})
}

// peerClient is replica's fill-probe client: peer.probe spans, parented
// by time to the replica's serve.handler in progress — unambiguous
// with one caller, the only shape that runs peer fill.
func (t *tracer) peerClient(replica int) *http.Client {
	base := peerTransport()
	t.transports = append(t.transports, base)
	return &http.Client{Transport: probeRoundTripper{base: base, t: t, replica: replica}}
}

type probeRoundTripper struct {
	base    http.RoundTripper
	t       *tracer
	replica int
}

func (rt probeRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	parent := rt.t.open[rt.replica].Load()
	if parent == nil || !rt.t.probing.Load() {
		return rt.base.RoundTrip(r)
	}
	s := span{Name: "peer.probe", Trace: parent.Trace, ID: rt.t.ids.Add(1), Parent: parent.ID, Replica: rt.replica, Start: rt.t.since(time.Now())}
	resp, err := rt.base.RoundTrip(r)
	if err != nil {
		s.End = rt.t.since(time.Now())
		rt.t.add(s)
		return nil, err
	}
	resp.Body = &probeBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

// probeBody ends its probe span when the prober closes the body, so
// the span covers reading the verdict too.
type probeBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *probeBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.since(time.Now())
		b.t.add(b.s)
	})
	return err
}

// clientTransport and peerTransport mirror the settings of the
// transports client and serve use when none is given, so the traced
// run differs from the untraced one only by the tracing itself.
func clientTransport() *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		TLSHandshakeTimeout:   5 * time.Second,
		ResponseHeaderTimeout: 30 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       90 * time.Second,
		ForceAttemptHTTP2:     true,
	}
}

func peerTransport() *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		TLSHandshakeTimeout:   2 * time.Second,
		ResponseHeaderTimeout: 5 * time.Second,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
	}
}

// selfTime is a span's duration minus the part of it its children
// cover: children are clipped to the parent and merged first, so
// overlapping siblings are not subtracted twice.
func selfTime(parent span, children []span) time.Duration {
	type interval struct{ a, b time.Duration }
	var ivs []interval
	for _, c := range children {
		if a, b := max(c.Start, parent.Start), min(c.End, parent.End); a < b {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.a <= cur.b:
			cur.b = max(cur.b, iv.b)
		default:
			covered += cur.b - cur.a
			cur = iv
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

// wireTimes sums the over-the-wire spans of the kept traces.
type wireTimes struct {
	root, handler, clientSelf, probe time.Duration
}

func wireOf(spans []span, keep map[uint64]bool) wireTimes {
	byTrace := make(map[uint64][]span)
	for _, s := range spans {
		if keep[s.Trace] {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	var w wireTimes
	for id, ss := range byTrace {
		var root span
		var handlers []span
		for _, s := range ss {
			switch {
			case s.ID == id:
				root = s
			case s.Name == "serve.handler":
				handlers = append(handlers, s)
				w.handler += s.dur()
			case s.Name == "peer.probe":
				w.probe += s.dur()
			}
		}
		w.root += root.dur()
		w.clientSelf += selfTime(root, handlers)
	}
	return w
}

// replicaOf maps each traced call to the replica that served it.
func replicaOf(spans []span) map[uint64]int {
	out := make(map[uint64]int)
	for _, s := range spans {
		if s.Name == "serve.handler" {
			out[s.Trace] = s.Replica
		}
	}
	return out
}

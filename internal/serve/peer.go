package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"sortnets"
)

// The peer cache-fill plane of cluster mode.
//
// Outgoing: when sortnetd runs with -peers, the Session offers its
// verdict-cache misses to the sibling shards through peerFill
// (installed as sortnets.WithPeerFillBatch) before paying the
// compute. A DoBatch makes ONE consultation for all of its misses,
// before its compute-pool work, and each peer gets ONE NDJSON probe
// carrying every entry no earlier peer answered; a single-shot Do
// consults with a one-line probe from inside its coalesced call, so
// concurrent identical misses share it. The whole consultation shares
// ONE short budget (Config.PeerTimeout) — peer fill is an
// optimization, never a stall. Under digest routing a fill hit is the
// common case the moment traffic arrives off-owner (a failover, a
// hedge, a round-robin client): the owner computed it already.
//
// Incoming: a probe is an NDJSON POST /do carrying the X-Sortnetd-Fill
// header — one sortnets.Request per line up, one sortnets.BatchVerdict
// per line back in order. serveFill answers each line from
// Session.Lookup, the cache-only read path: the cached verdict with
// source "hit", or a per-line 404 "fill miss"; a malformed line gets a
// per-line 400 and its neighbours are still answered. It NEVER
// computes and NEVER probes further, so fill traffic is structurally
// loop-free no matter how the peer graph is (mis)configured; as a
// belt-and-braces check, a probe whose X-Sortnetd-Peer hop marker
// names THIS shard is refused outright with 508 (a peer list pointing
// a shard at itself). Fill probes skip the admission gate: a saturated
// shard can still answer cache reads, which is exactly when its
// siblings need them.
//
// Every peer counter on both sides counts entries (probe lines), not
// round trips.

const (
	fillHeader = "X-Sortnetd-Fill"
	peerHeader = "X-Sortnetd-Peer"
)

// defaultPeerTimeout bounds one consultation — every peer, every
// entry of the batch — when Config.PeerTimeout is unset. Local-network
// round trips for a cache read are sub-millisecond; 100ms absorbs a
// GC pause or SYN retry without ever making fill the slow path next
// to a real compute.
const defaultPeerTimeout = 100 * time.Millisecond

// peerTransport bounds the phases of a probe that can hang on a dead
// peer; the per-consultation context does the rest.
var peerTransport = &http.Transport{
	DialContext:           (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
	TLSHandshakeTimeout:   2 * time.Second,
	ResponseHeaderTimeout: 5 * time.Second,
	MaxIdleConnsPerHost:   16,
	IdleConnTimeout:       90 * time.Second,
}

// peerPlane is the Service's cluster-fill state and counters.
type peerPlane struct {
	urls    []string // peer base URLs, trailing slash trimmed
	hc      *http.Client
	timeout time.Duration

	hits   atomic.Int64 // outgoing probe entries answered with a verdict
	misses atomic.Int64 // outgoing probe entries answered 404
	errors atomic.Int64 // outgoing probe entries not answered (dead peer, timeout, bad line)

	fillServed atomic.Int64 // incoming probe entries answered from the cache
	fillMisses atomic.Int64 // incoming probe entries answered 404
	fillLoops  atomic.Int64 // incoming probes refused by the hop marker
}

// initPeers wires the outgoing fill plane from the Config.
func (s *Service) initPeers() {
	if len(s.cfg.Peers) == 0 {
		return
	}
	s.peer.timeout = s.cfg.PeerTimeout
	if s.peer.timeout <= 0 {
		s.peer.timeout = defaultPeerTimeout
	}
	s.peer.hc = s.cfg.PeerHTTPClient
	if s.peer.hc == nil {
		s.peer.hc = &http.Client{Transport: peerTransport}
	}
	for _, u := range s.cfg.Peers {
		s.peer.urls = append(s.peer.urls, strings.TrimRight(u, "/"))
	}
}

// peerFill is the Session's cluster fill hook: probe each peer in
// configured order under one shared budget, each with one NDJSON probe
// carrying the entries no earlier peer answered. The answer is
// index-aligned with reqs, nil where no peer had the verdict. ctx is
// the batch caller's, or a single-shot miss's compute context; the
// timeout here bounds the whole consultation either way.
func (s *Service) peerFill(ctx context.Context, reqs []sortnets.Request) []*sortnets.Verdict {
	pctx, cancel := context.WithTimeout(ctx, s.peer.timeout)
	defer cancel()
	out := make([]*sortnets.Verdict, len(reqs))
	open := make([]int, len(reqs)) // indices into reqs still unanswered
	for i := range open {
		open[i] = i
	}
	var body []byte
	for _, u := range s.peer.urls {
		body = body[:0]
		for _, i := range open {
			body = sortnets.AppendRequest(body, &reqs[i])
			body = append(body, '\n')
		}
		heard := s.fillProbe(pctx, u, body, open, out)
		s.peer.errors.Add(int64(len(open) - heard))
		rest := open[:0]
		for _, i := range open {
			if out[i] == nil {
				rest = append(rest, i)
			}
		}
		if open = rest; len(open) == 0 || pctx.Err() != nil {
			break // all answered, or the budget is spent: compute the rest locally
		}
	}
	return out
}

// fillProbe sends one NDJSON fill probe — body holds one request line
// per index in open, in order — and stores each verdict answered for
// line k at out[open[k]]. It counts every line it hears (a verdict is
// a hit, a per-line 404 a miss, anything else an error) and returns
// how many it heard; the caller counts the lines a failed, refused or
// short response never answered. The body is read to its end so the
// connection can be reused.
func (s *Service) fillProbe(ctx context.Context, baseURL string, body []byte, open []int, out []*sortnets.Verdict) (heard int) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/do", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	httpReq.Header.Set("Content-Type", "application/x-ndjson")
	httpReq.Header.Set(fillHeader, "1")
	if s.cfg.ShardID != "" {
		httpReq.Header.Set(peerHeader, s.cfg.ShardID)
	}
	resp, err := s.peer.hc.Do(httpReq)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0
	}
	br := bufio.NewReader(resp.Body)
	var line []byte
	for {
		var tooLong bool
		line, tooLong, err = readLine(br, line[:0], maxLineBytes)
		if heard < len(open) && (tooLong || len(bytes.TrimSpace(line)) > 0) {
			var bv sortnets.BatchVerdict
			switch {
			case tooLong || sortnets.UnmarshalBatchVerdictLine(line, &bv) != nil:
				s.peer.errors.Add(1)
			case bv.Verdict != nil:
				out[open[heard]] = bv.Verdict
				s.peer.hits.Add(1)
			case bv.Error != nil && bv.Error.Status == http.StatusNotFound:
				s.peer.misses.Add(1)
			default:
				s.peer.errors.Add(1)
			}
			heard++
		}
		if err != nil {
			return heard
		}
	}
}

// fillMiss answers a probe line whose verdict this shard does not
// cache.
var fillMiss = &sortnets.RequestError{Status: http.StatusNotFound, Msg: "fill miss"}

// serveFill answers an incoming fill probe from the verdict cache.
// Reached from endpoint() before the admission gate; the lines stream
// through the same reader as NDJSON /do, bounded by maxLineBytes.
func (s *Service) serveFill(w http.ResponseWriter, r *http.Request) {
	if from := r.Header.Get(peerHeader); from != "" && s.cfg.ShardID != "" && from == s.cfg.ShardID {
		s.peer.fillLoops.Add(1)
		writeError(w, http.StatusLoopDetected, fmt.Sprintf(
			"peer fill loop: probe carries this shard's id %q (a peer list points a shard at itself)", from))
		return
	}
	if !ndjsonContentType(r) {
		writeError(w, http.StatusUnsupportedMediaType, "fill probes are NDJSON: POST /do with Content-Type application/x-ndjson")
		return
	}
	s.streamLines(w, r, s.writeFillChunk)
}

// writeFillChunk answers one chunk of probe lines from the verdict
// cache, in order, with one Write. It never computes. Probes carry no
// IDs (the Session strips them), so none are echoed.
func (s *Service) writeFillChunk(_ *http.Request, w io.Writer, sc *connScratch) bool {
	sc.out = sc.out[:0]
	for i := range sc.chunk {
		cl := &sc.chunk[i]
		line := sortnets.BatchVerdict{Error: cl.err}
		if cl.err == nil {
			if v, ok := s.sess.Lookup(cl.req); ok {
				s.peer.fillServed.Add(1)
				line = sortnets.BatchVerdict{Verdict: v, Source: v.Source}
			} else {
				s.peer.fillMisses.Add(1)
				line.Error = fillMiss
			}
		}
		sc.out = sortnets.AppendBatchVerdict(sc.out, &line)
		sc.out = append(sc.out, '\n')
	}
	_, err := w.Write(sc.out)
	return err == nil
}

// PeerSnapshot is the /stats "peer" section: the cluster fill plane
// from both sides — outgoing probe entries this shard sent on its own
// misses (peer_hits / peer_misses / peer_errors) and incoming probe
// entries it answered for siblings (fill_served / fill_misses); every
// one counts entries, not round trips. fill_loops counts whole probes
// refused by the hop marker.
type PeerSnapshot struct {
	ShardID    string   `json:"shard_id,omitempty"`
	Peers      []string `json:"peers,omitempty"`
	Hits       int64    `json:"peer_hits"`
	Misses     int64    `json:"peer_misses"`
	Errors     int64    `json:"peer_errors"`
	FillServed int64    `json:"fill_served"`
	FillMisses int64    `json:"fill_misses"`
	FillLoops  int64    `json:"fill_loops"`
}

func (s *Service) peerSnapshot() PeerSnapshot {
	return PeerSnapshot{
		ShardID:    s.cfg.ShardID,
		Peers:      s.peer.urls,
		Hits:       s.peer.hits.Load(),
		Misses:     s.peer.misses.Load(),
		Errors:     s.peer.errors.Load(),
		FillServed: s.peer.fillServed.Load(),
		FillMisses: s.peer.fillMisses.Load(),
		FillLoops:  s.peer.fillLoops.Load(),
	}
}

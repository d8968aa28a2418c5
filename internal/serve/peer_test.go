package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sortnets"
)

// requestLine renders req as one NDJSON request line, the way the
// probing shard encodes it.
func requestLine(req sortnets.Request) string {
	return string(sortnets.AppendRequest(nil, &req))
}

// fillPost sends a fill-only cache probe the way a sibling shard
// would: an NDJSON POST /do carrying the fill header, with from as the
// hop marker. It returns the response and its body split into lines.
func fillPost(t *testing.T, url, from string, lines ...string) (*http.Response, []string) {
	t.Helper()
	httpReq, err := http.NewRequest(http.MethodPost, url+"/do", strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/x-ndjson")
	httpReq.Header.Set(fillHeader, "1")
	if from != "" {
		httpReq.Header.Set(peerHeader, from)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
}

// fillMissLine is the per-line answer to a probe the cache cannot
// serve.
const fillMissLine = `{"error":{"status":404,"error":"fill miss"}}`

// TestFillEndpointMissHitIdentity: a fill probe line for an uncached
// network answers a per-line 404 without computing; once the verdict
// is cached the line answers with a verdict byte-identical to the
// original /do body, sourced "hit" — the property that makes adopting
// a peer's verdict always safe.
func TestFillEndpointMissHitIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ShardID: "s0"})

	req := sortnets.Request{Network: sorter4}
	resp, lines := fillPost(t, ts.URL, "s1", requestLine(req))
	if resp.StatusCode != http.StatusOK || len(lines) != 1 || lines[0] != fillMissLine {
		t.Fatalf("cold fill probe: status %d, lines %q, want one %s line — a probe must never compute", resp.StatusCode, lines, fillMissLine)
	}
	if ep := s.Stats().Endpoints["verify"]; ep.Computes != 0 {
		t.Fatalf("fill probe triggered %d computes, want 0", ep.Computes)
	}

	// A real request computes and caches the verdict...
	resp, want := post(t, ts.URL+"/do", req)
	if resp.StatusCode != 200 {
		t.Fatalf("real request: status %d: %s", resp.StatusCode, want)
	}

	// ...and the probe now replays it byte-identically, sourced hit.
	resp, lines = fillPost(t, ts.URL, "s1", requestLine(req))
	if resp.StatusCode != 200 || len(lines) != 1 {
		t.Fatalf("warm fill probe: status %d, lines %q, want one line", resp.StatusCode, lines)
	}
	if wantLine := `{"verdict":` + string(want) + `,"source":"hit"}`; lines[0] != wantLine {
		t.Fatalf("fill line diverged from the original verdict:\n fill: %s\n want: %s", lines[0], wantLine)
	}
	ps := s.peerSnapshot()
	if ps.FillMisses != 1 || ps.FillServed != 1 {
		t.Errorf("fill counters %+v, want 1 miss + 1 served", ps)
	}
}

// TestFillEndpointCanonicalSharing: a probe for a REORDERED writing of
// a cached circuit still hits — fill lookups go through the same
// canonical digest as everything else.
func TestFillEndpointCanonicalSharing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if resp, body := post(t, ts.URL+"/do", sortnets.Request{Network: sorter4}); resp.StatusCode != 200 {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, body)
	}
	resp, lines := fillPost(t, ts.URL, "s1", requestLine(sortnets.Request{Network: sorter4Reordered}))
	if resp.StatusCode != 200 || len(lines) != 1 || !strings.HasPrefix(lines[0], `{"verdict":`) {
		t.Fatalf("probe for the reordered circuit: status %d, lines %q, want a canonical hit", resp.StatusCode, lines)
	}
}

// TestFillEndpointRefusesOwnHopMarker: a probe carrying THIS shard's
// id means a peer list points a shard at itself; the whole probe is
// refused with 508 instead of answered.
func TestFillEndpointRefusesOwnHopMarker(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ShardID: "s0"})
	resp, lines := fillPost(t, ts.URL, "s0", requestLine(sortnets.Request{Network: sorter4}))
	if resp.StatusCode != http.StatusLoopDetected {
		t.Fatalf("self-probe: status %d (%q), want 508", resp.StatusCode, lines)
	}
	if ps := s.peerSnapshot(); ps.FillLoops != 1 || ps.FillMisses != 0 {
		t.Errorf("fill counters %+v, want one loop and no line answered", ps)
	}
}

// TestFillEndpointMalformedLine: a malformed probe line gets a
// per-line 400 in place while the lines around it are answered; a
// probe that is not NDJSON is refused whole.
func TestFillEndpointMalformedLine(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ShardID: "s0"})
	if resp, body := post(t, ts.URL+"/do", sortnets.Request{Network: sorter4}); resp.StatusCode != 200 {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, body)
	}
	resp, lines := fillPost(t, ts.URL, "s1",
		requestLine(sortnets.Request{Network: "n=4: [1,2]"}),
		`{bad`,
		requestLine(sortnets.Request{Network: sorter4}))
	if resp.StatusCode != 200 || len(lines) != 3 {
		t.Fatalf("status %d, lines %q, want 3 lines", resp.StatusCode, lines)
	}
	if lines[0] != fillMissLine {
		t.Errorf("line 0: %s, want %s", lines[0], fillMissLine)
	}
	if !strings.HasPrefix(lines[1], `{"error":{"status":400,`) {
		t.Errorf("line 1: %s, want a per-line 400", lines[1])
	}
	if !strings.HasPrefix(lines[2], `{"verdict":`) || !strings.HasSuffix(lines[2], `"source":"hit"}`) {
		t.Errorf("line 2: %s, want the cached verdict", lines[2])
	}
	if ps := s.peerSnapshot(); ps.FillMisses != 1 || ps.FillServed != 1 {
		t.Errorf("fill counters %+v, want 1 miss + 1 served", ps)
	}

	httpReq, err := http.NewRequest(http.MethodPost, ts.URL+"/do", strings.NewReader(requestLine(sortnets.Request{Network: sorter4})))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(fillHeader, "1")
	jsonResp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	jsonResp.Body.Close()
	if jsonResp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("JSON fill probe: status %d, want 415", jsonResp.StatusCode)
	}
	if ep := s.Stats().Endpoints["verify"]; ep.Computes != 1 {
		t.Errorf("verify computes = %d, want 1 (the warm-up only)", ep.Computes)
	}
}

// countingTransport counts the requests sent through it.
type countingTransport struct {
	n atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// snapshot returns the number of requests sent so far.
func (c *countingTransport) snapshot() int64 { return c.n.Load() }

// postNDJSON posts an NDJSON batch body to /do and returns the raw
// response body.
func postNDJSON(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/do", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("NDJSON batch: status %d, %v: %s", resp.StatusCode, err, out)
	}
	return out
}

// TestPeerFillOneProbePerPeerPerBatch: a 32-entry NDJSON batch to A,
// of which sibling B caches 16, costs A exactly ONE fill round trip —
// all 32 misses in one probe — then A computes only the 16 B lacks.
// The counters count entries on both sides, and A's response is
// byte-identical to a single node computing everything.
func TestPeerFillOneProbePerPeerPerBatch(t *testing.T) {
	// 32 distinct 6-line circuits: the comparator subsets of five
	// fixed comparators, each closed by [1,6].
	comps := []string{"[1,2]", "[3,4]", "[5,6]", "[2,3]", "[4,5]"}
	var all, held []string
	for i := 0; i < 32; i++ {
		net := "n=6: "
		for b, c := range comps {
			if i&(1<<b) != 0 {
				net += c
			}
		}
		line := requestLine(sortnets.Request{Network: net + "[1,6]"})
		all = append(all, line)
		if i%2 == 0 {
			held = append(held, line)
		}
	}
	body := strings.Join(all, "\n") + "\n"

	sB, tsB := newTestServer(t, Config{Workers: 1, ShardID: "sB"})
	postNDJSON(t, tsB.URL, strings.Join(held, "\n")+"\n")

	probes := &countingTransport{}
	sA, tsA := newTestServer(t, Config{
		Workers: 1, ShardID: "sA", Peers: []string{tsB.URL}, PeerTimeout: 5 * time.Second,
		PeerHTTPClient: &http.Client{Transport: probes},
	})
	got := postNDJSON(t, tsA.URL, body)

	if n := probes.snapshot(); n != 1 {
		t.Errorf("A sent %d fill probes for one batch, want exactly 1", n)
	}
	if c := sA.Stats().Endpoints["verify"].Computes; c != 16 {
		t.Errorf("A computed %d, want 16 (the entries B lacks)", c)
	}
	if ps := sA.peerSnapshot(); ps.Hits != 16 || ps.Misses != 16 || ps.Errors != 0 {
		t.Errorf("A peer counters %+v, want 16 hits + 16 misses, counted per entry", ps)
	}
	if ps := sB.peerSnapshot(); ps.FillServed != 16 || ps.FillMisses != 16 {
		t.Errorf("B fill counters %+v, want 16 served + 16 misses, counted per entry", ps)
	}

	_, tsRef := newTestServer(t, Config{Workers: 1})
	if want := postNDJSON(t, tsRef.URL, body); !bytes.Equal(got, want) {
		t.Fatalf("A's batch response diverged from a single node's:\n A: %s\nref: %s", got, want)
	}
}

// TestPeerFillEndToEnd: shard B has the verdict, shard A gets the
// request cold — A's miss consults B fill-only, adopts the verdict
// WITHOUT computing, and serves bytes identical to B's. The /stats
// counters attribute the hit on A and the serve on B.
func TestPeerFillEndToEnd(t *testing.T) {
	sB, tsB := newTestServer(t, Config{Workers: 1, ShardID: "sB"})
	respB, wantBody := post(t, tsB.URL+"/do", sortnets.Request{Network: sorter4})
	if respB.StatusCode != 200 {
		t.Fatalf("warming B: status %d: %s", respB.StatusCode, wantBody)
	}

	sA, tsA := newTestServer(t, Config{
		Workers: 1, ShardID: "sA", Peers: []string{tsB.URL}, PeerTimeout: time.Second,
	})
	respA, gotBody := post(t, tsA.URL+"/do", sortnets.Request{Network: sorter4})
	if respA.StatusCode != 200 {
		t.Fatalf("request to A: status %d: %s", respA.StatusCode, gotBody)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("peer-filled verdict diverged:\n A: %s\n B: %s", gotBody, wantBody)
	}
	if ep := sA.Stats().Endpoints["verify"]; ep.Computes != 0 {
		t.Errorf("A computed %d times despite the peer fill, want 0", ep.Computes)
	}
	if ps := sA.peerSnapshot(); ps.Hits != 1 || ps.Errors != 0 {
		t.Errorf("A peer counters %+v, want exactly one hit", ps)
	}
	if ps := sB.peerSnapshot(); ps.FillServed != 1 {
		t.Errorf("B fill counters %+v, want one probe served", ps)
	}

	// A's adopted verdict is now A's own cache entry: the next request
	// is a local hit, no second probe.
	respA2, _ := post(t, tsA.URL+"/do", sortnets.Request{Network: sorter4})
	if respA2.Header.Get("X-Sortnetd-Cache") != "hit" {
		t.Errorf("second request to A: cache %q, want hit", respA2.Header.Get("X-Sortnetd-Cache"))
	}
	if ps := sA.peerSnapshot(); ps.Hits != 1 {
		t.Errorf("A probed again for a cached verdict: %+v", ps)
	}
}

// TestPeerFillMissComputesLocally: when every peer misses too, the
// shard computes locally — fill is an optimization, never a
// correctness dependency — and the misses are counted.
func TestPeerFillMissComputesLocally(t *testing.T) {
	_, tsB := newTestServer(t, Config{Workers: 1, ShardID: "sB"})
	sA, tsA := newTestServer(t, Config{
		Workers: 1, ShardID: "sA", Peers: []string{tsB.URL}, PeerTimeout: time.Second,
	})
	resp, body := post(t, tsA.URL+"/do", sortnets.Request{Network: sorter4})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ep := sA.Stats().Endpoints["verify"]; ep.Computes != 1 {
		t.Errorf("A computes = %d, want 1 (peer missed, computed locally)", ep.Computes)
	}
	if ps := sA.peerSnapshot(); ps.Misses != 1 || ps.Hits != 0 {
		t.Errorf("A peer counters %+v, want one miss", ps)
	}
}

// TestPeerFillDeadPeerDegrades: a dead peer costs one failed probe
// inside the budget, then the shard computes locally. No request
// fails because the cluster plane is sick.
func TestPeerFillDeadPeerDegrades(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on
	sA, tsA := newTestServer(t, Config{
		Workers: 1, ShardID: "sA", Peers: []string{dead.URL}, PeerTimeout: 200 * time.Millisecond,
	})
	resp, body := post(t, tsA.URL+"/do", sortnets.Request{Network: sorter4})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s — a dead peer must not fail the request", resp.StatusCode, body)
	}
	if ep := sA.Stats().Endpoints["verify"]; ep.Computes != 1 {
		t.Errorf("A computes = %d, want 1", ep.Computes)
	}
	if ps := sA.peerSnapshot(); ps.Errors != 1 {
		t.Errorf("A peer counters %+v, want one error", ps)
	}
}

// TestPeerFillStatsWire: the peer section rides /stats as JSON with
// the documented counter names.
func TestPeerFillStatsWire(t *testing.T) {
	_, tsB := newTestServer(t, Config{Workers: 1, ShardID: "sB"})
	_, tsA := newTestServer(t, Config{
		Workers: 1, ShardID: "sA", Peers: []string{tsB.URL}, PeerTimeout: time.Second,
	})
	if resp, body := post(t, tsA.URL+"/do", sortnets.Request{Network: sorter4}); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(tsA.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Peer struct {
			ShardID string   `json:"shard_id"`
			Peers   []string `json:"peers"`
			Misses  int64    `json:"peer_misses"`
		} `json:"peer"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Peer.ShardID != "sA" || len(snap.Peer.Peers) != 1 || snap.Peer.Misses != 1 {
		t.Errorf("/stats peer section = %+v, want shard sA, one peer, one miss", snap.Peer)
	}
}

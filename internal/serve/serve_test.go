package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sortnets"
)

// sorter4 is the 5-comparator sorter on 4 lines (Batcher's shape).
const sorter4 = "n=4: [1,2][3,4][1,3][2,4][2,3]"

// sorter4Reordered swaps the two comparators of the first parallel
// layer — a different writing of the same circuit.
const sorter4Reordered = "n=4: [3,4][1,2][1,3][2,4][2,3]"

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := NewService(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestVerifySorterHolds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/do", sortnets.Request{Network: sorter4})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v sortnets.Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Check == nil || !v.Check.Holds || v.Check.TestsRun != 11 { // 2⁴−4−1 minimal sorter tests
		t.Errorf("got %+v, want holds over 11 tests", v.Check)
	}
	if v.Op != sortnets.OpVerify || v.Property != "sorter" || len(v.Digest) != 64 {
		t.Errorf("bad identity fields: %+v", v)
	}
	if got := resp.Header.Get("X-Sortnetd-Cache"); got != "miss" {
		t.Errorf("first request cache header %q, want miss", got)
	}
}

// TestDoEndpoint: POST /do takes the op from the body (default
// verify) and answers, for every op, exactly the bytes the in-process
// Session.Do + MarshalVerdict produce.
func TestDoEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sess := sortnets.NewSession()
	defer sess.Close()
	for _, op := range []string{"", sortnets.OpVerify, sortnets.OpFaults, sortnets.OpMinset} {
		req := sortnets.Request{Op: op, Network: sorter4}
		resp, got := post(t, ts.URL+"/do", req)
		if resp.StatusCode != 200 {
			t.Fatalf("op %q: status %d: %s", op, resp.StatusCode, got)
		}
		v, err := sess.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := sortnets.MarshalVerdict(v)
		if !bytes.Equal(got, want) {
			t.Errorf("op %q: /do differs from Session.Do:\n%s\n%s", op, got, want)
		}
		if h := resp.Header.Get("X-Sortnetd-Cache"); h != v.Source {
			t.Errorf("op %q: cache header %q, Session source %q", op, h, v.Source)
		}
	}
}

// TestPerOpRoutesGone: /do is the one verdict route; the per-op paths
// are not served.
func TestPerOpRoutesGone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/verify", "/faults", "/minset"} {
		resp, body := post(t, ts.URL+path, sortnets.Request{Network: sorter4})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d (%s), want 404", path, resp.StatusCode, body)
		}
	}
}

func TestVerifyFailureHasCounterexample(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := sortnets.Request{Network: "n=4: [1,2][3,4]"}
	resp, body := post(t, ts.URL+"/do", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v sortnets.Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Check == nil || v.Check.Holds || v.Check.Counterexample == "" || v.Check.Output == "" {
		t.Errorf("failing verdict lacks counterexample: %+v", v.Check)
	}
	// The exhaustive sweep must agree with the minimal test set.
	req.Exhaustive = true
	_, body2 := post(t, ts.URL+"/do", req)
	var g sortnets.Verdict
	if err := json.Unmarshal(body2, &g); err != nil {
		t.Fatal(err)
	}
	if g.Check == nil || g.Check.Holds != v.Check.Holds {
		t.Errorf("exhaustive and minimal-test verdicts disagree: %+v vs %+v", g.Check, v.Check)
	}
}

func TestCacheHitIsByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := sortnets.Request{Network: sorter4}
	_, first := post(t, ts.URL+"/do", req)
	resp, second := post(t, ts.URL+"/do", req)
	if got := resp.Header.Get("X-Sortnetd-Cache"); got != "hit" {
		t.Fatalf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cache hit not byte-identical:\n%s\n%s", first, second)
	}
	st := s.Stats()
	ep := st.Endpoints["verify"]
	if ep.Hits != 1 || ep.Computes != 1 {
		t.Errorf("stats after hit: %+v", ep)
	}
}

// TestCanonicalSharing: different writings of one circuit — a
// within-layer reordering, and the comparator-pair wire form — all
// share one digest and one cache entry.
func TestCanonicalSharing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, first := post(t, ts.URL+"/do", sortnets.Request{Network: sorter4})

	resp, body := post(t, ts.URL+"/do", sortnets.Request{Network: sorter4Reordered})
	if got := resp.Header.Get("X-Sortnetd-Cache"); got != "hit" {
		t.Errorf("reordered writing: cache header %q, want hit", got)
	}
	if !bytes.Equal(first, body) {
		t.Errorf("reordered writing not byte-identical")
	}

	resp, body = post(t, ts.URL+"/do", sortnets.Request{
		Lines:       4,
		Comparators: [][2]int{{3, 4}, {1, 2}, {1, 3}, {2, 4}, {2, 3}},
	})
	if got := resp.Header.Get("X-Sortnetd-Cache"); got != "hit" {
		t.Errorf("pair form: cache header %q, want hit", got)
	}
	if !bytes.Equal(first, body) {
		t.Errorf("pair form not byte-identical")
	}
	if got := s.Stats().Endpoints["verify"].Computes; got != 1 {
		t.Errorf("three writings cost %d computes, want 1", got)
	}
}

// TestCoalescing is the acceptance contract: two concurrent identical
// verify requests produce ONE underlying engine run, observable via
// /stats, and both callers get byte-identical verdicts.
func TestCoalescing(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 4, OnCompute: func() { <-gate }})

	req := sortnets.Request{Network: sorter4}
	type outcome struct {
		source string
		body   []byte
	}
	results := make(chan outcome, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/do", req)
			results <- outcome{resp.Header.Get("X-Sortnetd-Cache"), body}
		}()
	}
	// Release the gate only after the second request has joined the
	// first's computation, so exactly one compute is possible.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Endpoints["verify"].Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(results)

	var sources []string
	var bodies [][]byte
	for r := range results {
		sources = append(sources, r.source)
		bodies = append(bodies, r.body)
	}
	if len(bodies) != 2 {
		t.Fatalf("got %d results, want 2 (a request goroutine failed)", len(bodies))
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("coalesced verdicts differ:\n%s\n%s", bodies[0], bodies[1])
	}
	got := strings.Join(sources, ",")
	if got != "miss,coalesced" && got != "coalesced,miss" {
		t.Errorf("sources %q, want one miss and one coalesced", got)
	}
	ep := s.Stats().Endpoints["verify"]
	if ep.Computes != 1 {
		t.Errorf("two concurrent identical requests ran %d computes, want 1", ep.Computes)
	}
	if ep.Coalesced != 1 || ep.Misses != 2 || ep.Requests != 2 {
		t.Errorf("stats: %+v", ep)
	}
}

// TestAbortedRequestReleasesSlot is the cancellation acceptance
// contract: a client that disconnects mid-compute shows up in the
// canceled counter, its computation stops, and the pool slot serves
// the next request — all observable through /stats.
func TestAbortedRequestReleasesSlot(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, OnCompute: func() { <-gate }})

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(sortnets.Request{Network: sorter4})
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/do", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(httpReq)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait for the compute to start (it is parked on the gate), then
	// hang up the client.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Endpoints["verify"].Computes < 1 {
		if time.Now().After(deadline) {
			t.Fatal("compute never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request unexpectedly succeeded")
	}
	for s.Stats().Endpoints["verify"].Canceled < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("cancellation never recorded: %+v", s.Stats().Endpoints["verify"])
		}
		time.Sleep(time.Millisecond)
	}
	close(gate) // the parked worker resumes, sees the dead context, frees the slot

	// The single-shard pool must now serve a fresh request promptly.
	resp, verdict := post(t, ts.URL+"/do", sortnets.Request{Network: "n=4: [1,2][3,4]"})
	if resp.StatusCode != 200 {
		t.Fatalf("post-abort request: status %d: %s", resp.StatusCode, verdict)
	}
	ep := s.Stats().Endpoints["verify"]
	if ep.Canceled != 1 {
		t.Errorf("canceled counter %d, want 1: %+v", ep.Canceled, ep)
	}
	if ep.Computes < 2 {
		t.Errorf("slot not reused after abort: %+v", ep)
	}
}

func TestTangledNetworkRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/do", sortnets.Request{
		Lines:       2,
		Comparators: [][2]int{{2, 1}}, // max-on-top: no standard equivalent
	})
	if resp.StatusCode != 422 {
		t.Fatalf("tangled network: status %d (%s), want 422", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "tangled") {
		t.Errorf("error body %s lacks explanation", body)
	}
}

func TestRequestValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxLines: 8})
	faults := sortnets.OpFaults
	cases := []struct {
		name   string
		req    sortnets.Request
		status int
	}{
		{"missing network", sortnets.Request{}, 400},
		{"both forms", sortnets.Request{Network: sorter4, Comparators: [][2]int{{1, 2}}, Lines: 4}, 400},
		{"text form plus stray lines", sortnets.Request{Network: sorter4, Lines: 8}, 400},
		{"zero-based pair", sortnets.Request{Lines: 2, Comparators: [][2]int{{0, 1}}}, 400},
		{"parse error", sortnets.Request{Network: "n=4: [zap"}, 400},
		{"over line limit", sortnets.Request{Network: "n=9:"}, 400},
		// The limit must reject BEFORE any O(lines) allocation: these
		// would OOM the daemon if canonicalization ran first.
		{"absurd n text form", sortnets.Request{Network: "n=2000000000:"}, 400},
		{"absurd lines pair form", sortnets.Request{Lines: 2000000000, Comparators: [][2]int{{1, 2}}}, 400},
		{"absurd lines faults", sortnets.Request{Op: faults, Lines: 2000000000, Comparators: [][2]int{{1, 2}}}, 400},
		{"unknown property", sortnets.Request{Network: sorter4, Property: "widget"}, 400},
		{"selector bad k", sortnets.Request{Network: sorter4, Property: "selector", K: 9}, 400},
		{"merger odd lines", sortnets.Request{Network: "n=3: [1,2]", Property: "merger"}, 400},
		{"faults bad mode", sortnets.Request{Op: faults, Network: sorter4, Mode: "psychic"}, 400},
		{"faults by-property non-sorter", sortnets.Request{Op: faults, Network: sorter4, Property: "selector", K: 1}, 400},
		{"unknown op", sortnets.Request{Op: "conjure", Network: sorter4}, 400},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+"/do", c.req)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.status)
		}
	}
	if errs := s.Stats().Endpoints["verify"].Errors; errs < 6 {
		t.Errorf("verify error counter %d, want ≥ 6", errs)
	}
}

func TestMethodAndBodyErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/do")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /do: status %d, want 405", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/do", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 400 {
		t.Errorf("bad body: status %d, want 400", r2.StatusCode)
	}
}

func TestFaultsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, mode := range []string{"by-property", "by-golden"} {
		resp, body := post(t, ts.URL+"/do", sortnets.Request{Op: sortnets.OpFaults, Network: sorter4, Mode: mode})
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", mode, resp.StatusCode, body)
		}
		var v sortnets.Verdict
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		f := v.Faults
		if f == nil {
			t.Fatalf("%s: missing faults section: %s", mode, body)
		}
		// Fig. 1: 5 comparators × 3 modes + 4 lines × 2 + 3 pairs × 2.
		if f.Faults != 5*3+4*2+3*2 {
			t.Errorf("%s: fault universe %d, want %d", mode, f.Faults, 5*3+4*2+3*2)
		}
		if f.Detectable == 0 || f.Detected == 0 || f.Coverage <= 0 || f.Coverage > 1 {
			t.Errorf("%s: degenerate report %+v", mode, f)
		}
		if f.Detected != f.Detectable {
			// The paper's guarantee: the minimal sorter test set
			// catches every detectable fault in the sorter model
			// (ByProperty); ByGolden shares the property here because
			// sorter4 is a sorter whose tests expose every divergence.
			t.Errorf("%s: minimal test set missed faults: %+v", mode, f)
		}
	}
}

func TestMinsetEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/do", sortnets.Request{Op: sortnets.OpMinset, Network: sorter4})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v sortnets.Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	m := v.Minset
	if m == nil || m.FullTests != 11 || m.Size == 0 || m.Size > m.FullTests || len(m.Tests) != m.Size {
		t.Errorf("degenerate minset: %+v", m)
	}

	resp, body = post(t, ts.URL+"/do", sortnets.Request{Op: sortnets.OpMinset, Network: sorter4, Exact: true})
	if resp.StatusCode != 200 {
		t.Fatalf("exact: status %d: %s", resp.StatusCode, body)
	}
	var vex sortnets.Verdict
	if err := json.Unmarshal(body, &vex); err != nil {
		t.Fatal(err)
	}
	ex := vex.Minset
	if ex == nil || !ex.Exact {
		t.Errorf("exact solve did not certify: %+v", ex)
	}
	if ex.Size > m.Size {
		t.Errorf("exact minimum %d exceeds greedy %d", ex.Size, m.Size)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, CacheSize: 7})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(buf.String(), `"ok"`) {
		t.Errorf("healthz: %d %q", resp.StatusCode, buf.String())
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 || st.Cache.Capacity != 7 {
		t.Errorf("stats config: %+v", st)
	}
	for _, ep := range []string{"verify", "faults", "minset"} {
		if _, ok := st.Endpoints[ep]; !ok {
			t.Errorf("stats missing endpoint %q", ep)
		}
	}
}

func TestDifferentPropertiesDifferentEntries(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, _ = post(t, ts.URL+"/do", sortnets.Request{Network: sorter4})
	resp, _ := post(t, ts.URL+"/do", sortnets.Request{Network: sorter4, Property: "selector", K: 1})
	if got := resp.Header.Get("X-Sortnetd-Cache"); got != "miss" {
		t.Errorf("different property served from cache: %q", got)
	}
	if got := s.Stats().Endpoints["verify"].Computes; got != 2 {
		t.Errorf("computes %d, want 2", got)
	}
}

// TestConcurrentMixedLoad shakes the whole pipeline under -race:
// many goroutines, a handful of distinct circuits, all ops.
func TestConcurrentMixedLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, CacheSize: 8})
	nets := []string{
		sorter4,
		"n=4: [1,2][3,4][1,3][2,4][2,3]",
		"n=4: [1,2][3,4]",
		"n=5: [1,2][3,4][1,3][2,5][2,3][4,5][3,4]",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				ops := []string{sortnets.OpVerify, sortnets.OpFaults, sortnets.OpMinset}
				req := sortnets.Request{Op: ops[i%3], Network: nets[(g+i)%len(nets)]}
				resp, _ := post(t, ts.URL+"/do", req)
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	var requests, errors int64
	for _, ep := range st.Endpoints {
		requests += ep.Requests
		errors += ep.Errors
	}
	if requests != 8*12 {
		t.Errorf("requests %d, want %d", requests, 8*12)
	}
	if errors != 0 {
		t.Errorf("%d errors under mixed load: %s", errors, fmt.Sprint(st.Endpoints))
	}
}

// TestSingleShotTrailingDataRejected: a single-shot JSON body is
// exactly one Request. Anything after the first object is a 400,
// counted as a rejected verify request, exactly as the NDJSON decoder
// rejects the same line; no verdict is answered for the first object.
func TestSingleShotTrailingDataRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	first := `{"network":"` + sorter4 + `"}`
	for i, body := range []string{
		first + `{"op":"bogus","network":"zap"}`,
		first + ` trailing garbage`,
	} {
		resp, err := http.Post(ts.URL+"/do", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("body %d: status %d (%s), want 400", i, resp.StatusCode, buf.String())
		}
		if ep := s.Stats().Endpoints["verify"]; ep.Requests != int64(i+1) || ep.Errors != int64(i+1) || ep.Computes != 0 {
			t.Errorf("body %d: verify stats %+v, want %d rejected requests and no compute", i, ep, i+1)
		}
	}
}

package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sortnets"
)

// distinctNet builds the i-th of a family of distinct valid networks
// (different comparator counts → different digests → no coalescing).
func distinctNet(i int) string {
	var sb strings.Builder
	sb.WriteString("n=2:")
	for k := 0; k <= i; k++ {
		sb.WriteString(" [1,2]")
	}
	return sb.String()
}

// TestShedUnderOverload: with the gate at 2 slots and computes held,
// extra arrivals are shed with 429 + Retry-After within the queue
// wait — bounded in-flight instead of latency collapse — and the
// admitted requests still finish once the stall clears.
func TestShedUnderOverload(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	started := make(chan struct{}, 16)
	s, ts := newTestServer(t, Config{
		Workers:     1,
		MaxInflight: 2,
		QueueWait:   20 * time.Millisecond,
		OnCompute: func() {
			started <- struct{}{}
			<-gate
		},
	})

	const total = 8
	type result struct {
		status     int
		retryAfter string
	}
	results := make(chan result, total)
	for i := 0; i < total; i++ {
		go func(i int) {
			body, _ := json.Marshal(sortnets.Request{Network: distinctNet(i)})
			resp, err := http.Post(ts.URL+"/do", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				results <- result{}
				return
			}
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}
	<-started // at least one admitted request is computing

	// While saturated, readiness must refuse new traffic.
	deadline := time.Now().Add(time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && body.Status == "overloaded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readiness never reported overloaded at a full gate")
		}
		time.Sleep(2 * time.Millisecond)
	}

	var ok, shed int
	sawRetryAfter := true
	for i := 0; i < total; i++ {
		r := <-results
		switch r.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			sawRetryAfter = sawRetryAfter && r.retryAfter != ""
		default:
			t.Errorf("unexpected status %d", r.status)
		}
		if ok+shed == total-2 {
			release() // the shed is complete; let the admitted pair finish
		}
	}
	if ok != 2 || shed != total-2 {
		t.Fatalf("ok=%d shed=%d, want 2/%d (gate bounds in-flight)", ok, shed, total-2)
	}
	if !sawRetryAfter {
		t.Error("shed responses must carry Retry-After")
	}
	st := s.Stats().Resilience
	if st.Shed != int64(total-2) || st.Inflight != 0 || st.MaxInflight != 2 {
		t.Errorf("resilience stats %+v, want shed=%d inflight=0 max=2", st, total-2)
	}
}

// TestRetriesSeenCounter: requests carrying the client retry marker
// are counted, so an operator can attribute load to failover traffic.
func TestRetriesSeenCounter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(sortnets.Request{Network: sorter4})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/do", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Sortnetd-Retry", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := s.Stats().Resilience.RetriesSeen; got != 1 {
		t.Errorf("retries_seen = %d, want 1", got)
	}
}

// TestNDJSONShedPerLine: a saturated gate answers NDJSON lines with
// per-line 429 errors on a SURVIVING 200 connection — the stream (and
// a client Pool's partial retry) continues; the transport does not
// tear down.
func TestNDJSONShedPerLine(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	started := make(chan struct{}, 4)
	_, ts := newTestServer(t, Config{
		Workers:     1,
		MaxInflight: 1,
		QueueWait:   5 * time.Millisecond,
		OnCompute: func() {
			started <- struct{}{}
			<-gate
		},
	})

	// Occupy the only slot with a gated single-shot request.
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		body, _ := json.Marshal(sortnets.Request{Network: sorter4})
		resp, err := http.Post(ts.URL+"/do", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	// The batch cannot get the slot: every line must come back as a
	// 429 error line, status still 200.
	batch := `{"id":"a","network":"n=2: [1,2]"}` + "\n" + `{"id":"b","network":"n=2: [1,2][1,2]"}` + "\n"
	resp, err := http.Post(ts.URL+"/do", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("NDJSON status %d, want 200 (shed is per-line)", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		var line sortnets.BatchVerdict
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if line.Error == nil || line.Error.Status != http.StatusTooManyRequests {
			t.Errorf("line %d = %+v, want a 429 error line", lines, line)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d response lines, want 2", lines)
	}
	release()
	<-hold
}

// TestPanicRecovered: an engine panic costs its caller a 500 on a
// surviving process — the next request answers normally and the panic
// is counted on /stats.
func TestPanicRecovered(t *testing.T) {
	var poison atomic.Bool
	poison.Store(true)
	s, ts := newTestServer(t, Config{OnCompute: func() {
		if poison.CompareAndSwap(true, false) {
			panic("poisoned request")
		}
	}})

	resp, body := post(t, ts.URL+"/do", sortnets.Request{Network: sorter4})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned request: status %d (%s), want 500", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("panicked")) {
		t.Errorf("error body %s should name the panic", body)
	}

	// The process survived: the same daemon answers the next request.
	resp, body = post(t, ts.URL+"/do", sortnets.Request{Network: sorter4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after a panic: status %d (%s), want 200", resp.StatusCode, body)
	}
	if got := s.Stats().Resilience.PanicsRecovered; got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
}

// TestComputeTimeout504: a verdict that exceeds the per-request
// compute deadline answers 504 (and counts), while the caller's own
// context stays live.
func TestComputeTimeout504(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ComputeTimeout: 20 * time.Millisecond,
		OnCompute:      func() { time.Sleep(150 * time.Millisecond) },
	})
	resp, body := post(t, ts.URL+"/do", sortnets.Request{Network: sorter4})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	// The request was legal, just expensive: the 504 must hint a
	// retry, or the client pool backs off with no floor.
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("504 response carries no Retry-After header")
	}
	if got := s.Stats().Resilience.ComputeTimeouts; got != 1 {
		t.Errorf("compute_timeouts = %d, want 1", got)
	}
	// Give the stalled worker time to finish before Close.
	time.Sleep(200 * time.Millisecond)
}

// TestNDJSONComputeTimeoutRetryAfter: the NDJSON path has no headers,
// so a per-line 504 must carry the backoff hint in the typed error's
// retry_after field — that is what the client pool's observe() reads
// as its backoff floor.
func TestNDJSONComputeTimeoutRetryAfter(t *testing.T) {
	svc := NewService(Config{
		Workers:        1,
		ComputeTimeout: 20 * time.Millisecond,
		OnCompute:      func() { time.Sleep(150 * time.Millisecond) },
	})
	defer svc.Close()
	lines := postNDJSONBody(t, svc, []byte(`{"id":"a","network":"`+sorter4+`"}`))
	if len(lines) != 1 {
		t.Fatalf("%d response lines, want 1: %+v", len(lines), lines)
	}
	e := lines[0].Error
	if e == nil || lines[0].Verdict != nil {
		t.Fatalf("want an error line, got %+v", lines[0])
	}
	if e.Status != http.StatusGatewayTimeout {
		t.Fatalf("line error status %d (%s), want 504", e.Status, e.Msg)
	}
	if e.RetryAfter < 1 {
		t.Errorf("per-line 504 retry_after = %d, want >= 1 (the headerless hint carrier)", e.RetryAfter)
	}
	// The hint must survive the zero-alloc wire encoder too.
	var out []byte
	out = sortnets.AppendBatchVerdict(out, &lines[0])
	if !bytes.Contains(out, []byte(`"retry_after":`)) {
		t.Errorf("wire encoding drops retry_after: %s", out)
	}
	// Give the stalled worker time to finish before Close.
	time.Sleep(200 * time.Millisecond)
}

// TestReadinessDraining: Drain flips /healthz to 503
// {"status":"draining"} while /livez keeps reporting the process
// alive — the liveness/readiness split.
func TestReadinessDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	get := func(path string) (int, map[string]string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]string
		json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	if code, m := get("/healthz"); code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("healthy readiness = %d %v", code, m)
	}
	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() must report true after Drain()")
	}
	if code, m := get("/healthz"); code != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Fatalf("draining readiness = %d %v, want 503 draining", code, m)
	}
	// Draining readiness hints the handoff scale, not the shed
	// backoff: drainRetryAfter is 5s, so the header is "5".
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if ra := resp.Header.Get("Retry-After"); ra != "5" {
			t.Errorf("draining Retry-After = %q, want %q", ra, "5")
		}
	}
	if !s.Stats().Resilience.Draining {
		t.Error("stats must report draining")
	}
	resp, err := http.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("livez while draining = %d, want 200 (still alive)", resp.StatusCode)
	}
}

// TestInflightDefault: the gate defaults to max(64, 8×workers).
func TestInflightDefault(t *testing.T) {
	s := NewService(Config{Workers: 2})
	defer s.Close()
	if got := s.Stats().Resilience.MaxInflight; got != 64 {
		t.Errorf("default max_inflight = %d, want 64", got)
	}
	s2 := NewService(Config{Workers: 16})
	defer s2.Close()
	if got := s2.Stats().Resilience.MaxInflight; got != 128 {
		t.Errorf("max_inflight at 16 workers = %d, want 128", got)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sortnets"
	"sortnets/client"
	"sortnets/internal/serve"
)

// startDaemon runs the full daemon stack (listener + service +
// handler) on an ephemeral port and returns its base URL plus a
// drain trigger (the in-test stand-in for SIGTERM: main wires the
// same channel to the signal handler).
func startDaemon(t *testing.T, cfg serve.Config) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	drain := make(chan struct{})
	var drainOnce sync.Once
	triggerDrain := func() { drainOnce.Do(func() { close(drain) }) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		opts := drainOptions{grace: 10 * time.Millisecond, deadline: 5 * time.Second}
		if err := run(ln, cfg, opts, drain, func(string, ...any) {}); err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return "http://" + ln.Addr().String(), triggerDrain
}

func TestDaemonEndToEnd(t *testing.T) {
	url, _ := startDaemon(t, serve.Config{Workers: 2, CacheSize: 64})

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"network":"n=4: [1,2][3,4][1,3][2,4][2,3]"}`
	var verdicts [][]byte
	var headers []string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(url+"/do", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("verify: %d: %s", resp.StatusCode, buf.String())
		}
		verdicts = append(verdicts, buf.Bytes())
		headers = append(headers, resp.Header.Get("X-Sortnetd-Cache"))
	}
	if !bytes.Equal(verdicts[0], verdicts[1]) {
		t.Errorf("repeat verdict not byte-identical:\n%s\n%s", verdicts[0], verdicts[1])
	}
	if headers[0] != "miss" || headers[1] != "hit" {
		t.Errorf("cache headers %v, want [miss hit]", headers)
	}

	if resp, err := http.Get(url + "/livez"); err != nil || resp.StatusCode != 200 {
		t.Errorf("livez: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	resp, err = http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	ep := st.Endpoints["verify"]
	if ep.Requests != 2 || ep.Hits != 1 || ep.Computes != 1 {
		t.Errorf("stats: %+v", ep)
	}
	if st.Cache.Entries != 1 {
		t.Errorf("cache entries %d, want 1", st.Cache.Entries)
	}
}

// TestDrainMidStreamFinishesBatch is the SIGTERM contract, leak-
// checked: a drain triggered while an NDJSON batch is computing must
// flip /healthz to 503 {"status":"draining"} immediately, let the
// in-flight batch finish and deliver every verdict, shut the daemon
// down cleanly, and leave no goroutines behind.
func TestDrainMidStreamFinishesBatch(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	started := make(chan struct{}, 8)
	cfg := serve.Config{Workers: 2, OnCompute: func() {
		started <- struct{}{}
		<-gate
	}}
	drain := make(chan struct{})
	runDone := make(chan error, 1)
	// A long grace keeps the listener open while we assert the
	// draining readiness; the batch finishes inside it.
	opts := drainOptions{grace: 2 * time.Second, deadline: 5 * time.Second}
	go func() { runDone <- run(ln, cfg, opts, drain, func(string, ...any) {}) }()
	base := "http://" + ln.Addr().String()

	tr := &http.Transport{}
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	cl := client.New(base, client.WithHTTPClient(hc))

	// One NDJSON batch, its compute held at the gate.
	reqs := []sortnets.Request{
		{Network: "n=4: [1,2][3,4][1,3][2,4][2,3]"},
		{Network: "n=4: [1,2][3,4][1,3][2,4][2,3]"},
		{Network: "n=4: [1,2][3,4][1,3][2,4][2,3]"},
	}
	type batchResult struct {
		vs  []*sortnets.Verdict
		err error
	}
	batchDone := make(chan batchResult, 1)
	go func() {
		vs, err := cl.DoBatch(context.Background(), reqs)
		batchDone <- batchResult{vs, err}
	}()
	<-started // the batch is mid-compute

	// SIGTERM (the test's stand-in shares main's channel wiring).
	close(drain)

	// Readiness must flip to 503 {"status":"draining"} within the
	// grace window, while the batch is still in flight.
	deadline := time.Now().Add(time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			var body struct {
				Status string `json:"status"`
			}
			json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable && body.Status == "draining" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Let the in-flight batch finish: every verdict must arrive.
	release()
	res := <-batchDone
	if res.err != nil {
		t.Fatalf("draining server failed the in-flight batch: %v", res.err)
	}
	for i, v := range res.vs {
		if v == nil || v.Digest == "" {
			t.Fatalf("verdict %d missing after drain: %+v", i, v)
		}
	}

	if err := <-runDone; err != nil {
		t.Fatalf("run returned %v after drain", err)
	}
	tr.CloseIdleConnections()

	// Leak check: everything the daemon and the batch spawned must be
	// gone (small slack for the test's own helpers winding down).
	leakDeadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after drain: %d → %d\n%s",
				baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Package client is the remote face of the one request model: a
// *Client speaks the same sortnets.Request / sortnets.Verdict types
// as an in-process sortnets.Session, against a running sortnetd URL.
// Both satisfy sortnets.Doer — single-shot Do and batch-first
// DoBatch alike — so a caller swaps local ↔ remote by swapping a
// value:
//
//	var doer sortnets.Doer = sortnets.NewSession()
//	// ... or ...
//	doer = client.New("http://localhost:8357")
//	v, err := doer.Do(ctx, sortnets.Request{Network: "n=4: [1,2][3,4][1,3][2,4][2,3]"})
//	vs, err := doer.DoBatch(ctx, batch)
//
// DoBatch ships the whole batch as one NDJSON round trip to POST /do
// (one Request per line) and decodes one sortnets.BatchVerdict per
// line back; Stream is the pipelined form of the same protocol, for
// callers that produce requests and consume verdicts concurrently
// over one connection.
//
// The request's context governs the whole round trip; cancelling it
// tears down the HTTP request, which cancels the computation inside
// the server and releases its pool slot. Verdicts decode to the same
// bytes the Session would produce locally (asserted by the
// round-trip property test), and 4xx failures come back as the same
// *sortnets.RequestError a local Session returns — per entry, for
// batches.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sortnets"
)

// Client calls a sortnetd instance. The zero value is not usable;
// build one with New.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (transports,
// test doubles, different timeouts). The default client (see
// defaultHTTPClient) bounds dialing, TLS handshakes and the wait for
// response headers so a blackholed backend fails instead of hanging
// forever; per-request deadlines still arrive via the context.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// defaultTransport is shared by every Client built without
// WithHTTPClient, so they pool connections together. Unlike
// http.DefaultTransport it bounds every phase that can hang on a dead
// or blackholed backend: dialing, the TLS handshake, and the wait for
// response headers. There is deliberately NO whole-response timeout —
// NDJSON streams are long-lived by design; cancel via the context.
var defaultTransport = &http.Transport{
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	TLSHandshakeTimeout:   5 * time.Second,
	ResponseHeaderTimeout: 30 * time.Second,
	ExpectContinueTimeout: 1 * time.Second,
	MaxIdleConnsPerHost:   32,
	IdleConnTimeout:       90 * time.Second,
	ForceAttemptHTTP2:     true,
}

var defaultHTTPClient = &http.Client{Transport: defaultTransport}

// New returns a Client against a sortnetd base URL such as
// "http://localhost:8357".
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: defaultHTTPClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Unavailable is a backend that answered but declined the work: 429
// (admission control shed the request) or 503 (draining). It is
// transient by construction — the request never reached a verdict —
// so a Pool retries it on another backend, honoring RetryAfter when
// the server sent one.
type Unavailable struct {
	Status     int
	RetryAfter time.Duration // 0 when the server sent no Retry-After
	Msg        string
}

func (e *Unavailable) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("sortnetd: status %d: %s", e.Status, e.Msg)
	}
	return fmt.Sprintf("sortnetd: status %d", e.Status)
}

// unavailableStatus reports whether an HTTP status means "healthy
// protocol, backend declining work right now".
func unavailableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryAfter parses the response's Retry-After header (delta-seconds
// form only; sortnetd never sends HTTP-dates).
func retryAfter(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// retryHeader marks re-sent requests so the server's retries_seen
// counter can attribute load to failover/retry traffic.
const retryHeader = "X-Sortnetd-Retry"

// Client implements sortnets.Doer.
var _ sortnets.Doer = (*Client)(nil)

// maxResponseBytes bounds decoded response bodies (a minset verdict
// lists at most a few thousand test strings).
const maxResponseBytes = 8 << 20

// Do posts the Request to the service's unified /do endpoint and
// decodes the Verdict. Source is taken from the X-Sortnetd-Cache
// header, so cache observability matches the in-process Session.
func (c *Client) Do(ctx context.Context, req sortnets.Request) (*sortnets.Verdict, error) {
	return c.doAttempt(ctx, req, 0)
}

// doAttempt is Do with the retry attempt number (0 = first send); a
// Pool's re-sends stamp it into the retry header so the server can
// count failover traffic.
func (c *Client) doAttempt(ctx context.Context, req sortnets.Request, attempt int) (*sortnets.Verdict, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/do", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if attempt > 0 {
		httpReq.Header.Set(retryHeader, strconv.Itoa(attempt))
	}
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		// Surface the caller's own cancellation as the bare context
		// error, exactly like a local Session.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		hasMsg := json.Unmarshal(body, &e) == nil && e.Error != ""
		if unavailableStatus(resp.StatusCode) {
			return nil, &Unavailable{Status: resp.StatusCode, RetryAfter: retryAfter(resp), Msg: e.Error}
		}
		if hasMsg && resp.StatusCode < 500 {
			return nil, &sortnets.RequestError{Status: resp.StatusCode, Msg: e.Error}
		}
		return nil, fmt.Errorf("sortnetd: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var v sortnets.Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("sortnetd: undecodable verdict: %w", err)
	}
	v.Source = resp.Header.Get("X-Sortnetd-Cache")
	return &v, nil
}

// DoBatch posts the whole batch to /do as one NDJSON round trip (one
// Request per line) and decodes the BatchVerdict lines back, with
// Session.DoBatch's exact contract: the result is index-aligned with
// reqs (the service answers in request order), per-entry failures
// come back as *sortnets.RequestError inside a *sortnets.BatchError
// alongside the partial verdicts, and each verdict's Source carries
// the per-line cache provenance (hit / coalesced / miss).
func (c *Client) DoBatch(ctx context.Context, reqs []sortnets.Request) ([]*sortnets.Verdict, error) {
	return c.doBatchAttempt(ctx, reqs, 0)
}

// doBatchAttempt is DoBatch with the retry attempt number (0 = first
// send), stamped into the retry header on re-sends.
func (c *Client) doBatchAttempt(ctx context.Context, reqs []sortnets.Request, attempt int) ([]*sortnets.Verdict, error) {
	if len(reqs) == 0 {
		return []*sortnets.Verdict{}, nil
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	sc.body = sc.body[:0]
	for i := range reqs {
		sc.body = sortnets.AppendRequest(sc.body, &reqs[i])
		sc.body = append(sc.body, '\n')
	}
	resp, err := c.postNDJSON(ctx, bytes.NewReader(sc.body), attempt)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	verdicts := make([]*sortnets.Verdict, len(reqs))
	errs := make([]error, len(reqs))
	failed := false
	i := 0
	sc.br.Reset(resp.Body)
	defer sc.br.Reset(nil)
	for {
		var readErr error
		sc.line, readErr = readResponseLine(sc.br, sc.line[:0])
		if len(bytes.TrimSpace(sc.line)) == 0 {
			if readErr != nil {
				break
			}
			continue
		}
		var line sortnets.BatchVerdict
		if err := sortnets.UnmarshalBatchVerdictLine(sc.line, &line); err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("sortnetd: undecodable batch line %d: %w", i, err)
		}
		if i >= len(reqs) {
			return nil, fmt.Errorf("sortnetd: %d batch entries sent, more lines received", len(reqs))
		}
		switch {
		case line.Error != nil:
			errs[i], failed = line.Error, true
		case line.Verdict != nil:
			line.Verdict.Source = line.Source
			verdicts[i] = line.Verdict
		default:
			return nil, fmt.Errorf("sortnetd: batch line %d has neither verdict nor error", i)
		}
		i++
		if readErr != nil {
			break
		}
	}
	if i != len(reqs) {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("sortnetd: %d batch entries sent, %d lines received", len(reqs), i)
	}
	if failed {
		return verdicts, &sortnets.BatchError{Errs: errs}
	}
	return verdicts, nil
}

// batchScratch is DoBatch's reusable working set: the request body
// under construction, the response reader, and the current response
// line. Pooled so a steady stream of batches allocates neither
// buffers nor readers.
type batchScratch struct {
	body []byte
	br   *bufio.Reader
	line []byte
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{br: bufio.NewReaderSize(nil, 64<<10)}
}}

// readResponseLine appends one newline-terminated response line
// (without the newline) to buf. A non-nil error means the stream is
// done; any partial final line is still returned.
//
//sortnets:hotpath
func readResponseLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		switch err {
		case bufio.ErrBufferFull:
			continue
		case nil:
			return bytes.TrimSuffix(buf, []byte("\n")), nil
		default:
			return buf, err
		}
	}
}

// Stream is the pipelined form of the NDJSON batch protocol: one
// connection, requests flowing up while verdicts flow down. next is
// called for each request to send and ends the upstream by returning
// false; on receives every response line as it arrives, in request
// order (tag requests with IDs to correlate without counting) — a
// non-nil return aborts the stream with that error. Stream returns
// when the response stream ends: after all requests are answered, on
// abort, or on ctx cancellation.
//
// On early termination the producer goroutine is unblocked from its
// pipe write and exits after its current next() call returns; Stream
// deliberately does NOT wait for it, so a producer blocked inside
// next() (e.g. gated on verdicts that will no longer arrive) can
// never hang the caller. Gate any wait inside next() on ctx so the
// goroutine winds down promptly.
//
// Unlike DoBatch, Stream applies the server's adaptive chunking:
// whatever requests are pipelined when the server sweeps its reader
// become one batch (deduped/grouped together), so a fast producer
// gets batch throughput and a slow one per-request latency.
func (c *Client) Stream(ctx context.Context, next func() (sortnets.Request, bool), on func(sortnets.BatchVerdict) error) error {
	pr, pw := io.Pipe()
	//lint:ignore goroutineleak deliberately unawaited (doc above): the producer exits on pipe close, and waiting on it could hang the caller inside next()
	go func() {
		enc := json.NewEncoder(pw)
		for {
			req, ok := next()
			if !ok {
				pw.Close()
				return
			}
			if err := enc.Encode(&req); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
	}()
	resp, err := c.postNDJSON(ctx, pr, 0)
	if err != nil {
		pr.CloseWithError(err) // fail the producer's next pipe write
		return err
	}
	defer func() {
		resp.Body.Close()
		pr.CloseWithError(context.Canceled)
	}()
	received := 0
	dec := json.NewDecoder(resp.Body)
	for {
		var line sortnets.BatchVerdict
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			return fmt.Errorf("sortnetd: undecodable stream line %d: %w", received, err)
		}
		received++
		if err := on(line); err != nil {
			return err
		}
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return nil
}

// postNDJSON opens the batch protocol round trip and validates the
// response envelope.
func (c *Client) postNDJSON(ctx context.Context, body io.Reader, attempt int) (*http.Response, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/do", body)
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/x-ndjson")
	if attempt > 0 {
		httpReq.Header.Set(retryHeader, strconv.Itoa(attempt))
	}
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		if unavailableStatus(resp.StatusCode) {
			return nil, &Unavailable{Status: resp.StatusCode, RetryAfter: retryAfter(resp), Msg: string(bytes.TrimSpace(raw))}
		}
		return nil, fmt.Errorf("sortnetd: batch status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp, nil
}

// Healthz probes the service's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sortnetd: healthz status %d", resp.StatusCode)
	}
	return nil
}

// Stats fetches the service's raw /stats body (shape:
// serve.StatsSnapshot).
func (c *Client) Stats(ctx context.Context) ([]byte, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sortnetd: stats status %d", resp.StatusCode)
	}
	return body, nil
}

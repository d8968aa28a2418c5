package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sortnets"
)

// HTTP surface.
//
//	POST /do       sortnets.Request → sortnets.Verdict (op from the body; default verify)
//	               with Content-Type application/x-ndjson: one Request per line in,
//	               one sortnets.BatchVerdict per line out, streamed as chunks complete
//	POST /do       with X-Sortnetd-Fill: a sibling shard's NDJSON fill probe,
//	               answered per line from the verdict cache (peer.go)
//	GET  /healthz  → readiness: 200 {"status":"ok"}, or 503
//	               {"status":"draining"|"overloaded"} when the server
//	               should receive no new traffic
//	GET  /livez    → liveness: 200 "ok" for as long as the process serves
//	GET  /stats    → StatsSnapshot
//
// Responses are application/json. The X-Sortnetd-Cache header reports
// how a verdict was obtained: "hit" (verdict cache), "coalesced"
// (joined an identical in-flight computation), or "miss" (computed).
// Errors are {"error": "..."} with a 4xx/5xx status. The request's
// context is the client connection: a disconnect or client-side
// deadline cancels the computation inside the Session, releasing its
// pool slot.
//
// Every verdict request passes the admission gate (admission.go): a
// saturated server answers 429 with a Retry-After header instead of
// queueing without bound. Requests re-sent by a failing-over
// client.Pool carry X-Sortnetd-Retry and are counted as retries_seen
// on /stats.

// maxBodyBytes bounds request bodies; the largest legitimate request
// is a few thousand comparator pairs.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/do", s.endpoint)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "healthz is GET-only")
			return
		}
		s.readiness(w)
	})
	mux.HandleFunc("/livez", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "livez is GET-only")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "stats is GET-only")
			return
		}
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// endpoint decodes one POST /do body into the shared Request and
// relays the Session's verdict — the entire service layer in one
// screen. An application/x-ndjson body switches to the streaming
// batch protocol (ndjson.go) instead; both transports decode requests
// with sortnets.UnmarshalRequestLine. Requests that never reach the
// Session (wrong method, malformed body) count as rejected verify
// requests, verify being the op a body defaults to.
func (s *Service) endpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpRejected.Add(1)
		writeError(w, http.StatusMethodNotAllowed, "use POST with a JSON body")
		return
	}
	if r.Header.Get("X-Sortnetd-Retry") != "" {
		s.retriesSeen.Add(1)
	}
	if r.Header.Get(fillHeader) != "" {
		// A sibling shard's fill-only cache probe (peer.go): each line
		// answered from the cache or 404, never computed, never gated.
		s.serveFill(w, r)
		return
	}
	if ndjsonContentType(r) {
		s.serveNDJSON(w, r)
		return
	}
	var req sortnets.Request
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = sortnets.UnmarshalRequestLine(data, &req)
	}
	if err != nil {
		s.httpRejected.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	v, err := s.do(r.Context(), req)
	if err != nil {
		var re *sortnets.RequestError
		switch {
		case errors.Is(err, errShed):
			w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(shedRetryAfter)))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("server saturated: %d requests in flight; retry after %v", s.cfg.MaxInflight, shedRetryAfter))
		case errors.As(err, &re):
			if re.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(re.RetryAfter))
			}
			writeError(w, re.Status, re.Msg)
		case r.Context().Err() != nil:
			// Client gone or client deadline hit: the write is
			// best-effort (499 in the nginx tradition); the important
			// part — the engine stopped and the pool slot is free —
			// already happened inside the Session.
			writeError(w, 499, "request canceled")
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	body, err := sortnets.MarshalVerdict(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sortnetd-Cache", v.Source)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// readiness answers /healthz: 503 while draining (so load balancers
// and client Pools route away before the listener closes) or while
// the admission gate is saturated (shedding new arrivals anyway), 200
// otherwise. Liveness is /livez; a draining server is still alive.
func (s *Service) readiness(w http.ResponseWriter) {
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(drainRetryAfter)))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.inflight.Load() >= int64(s.cfg.MaxInflight):
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(shedRetryAfter)))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "overloaded"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

// RetryAfterSeconds renders a backoff hint as Retry-After
// delta-seconds, rounding UP with a floor of one second. The header
// has whole-second granularity, so the historical int(d/time.Second)
// truncation turned any sub-second hint into "0" — which clients
// parse as NO floor, defeating the hint exactly when the server most
// wanted breathing room. Exported so the client's floor parser can be
// round-trip tested against it.
func RetryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

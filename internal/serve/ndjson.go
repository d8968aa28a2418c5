package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"sortnets"
)

// NDJSON streaming: POST /do with Content-Type application/x-ndjson
// carries one sortnets.Request per line and is answered, on the same
// connection, by one sortnets.BatchVerdict per line in request order
// (correlate by order, or by the echoed id when entries are tagged).
// The handler reads adaptively — whatever lines the client has
// pipelined are swept into one Session.DoBatch call (bounded by
// maxChunkLines), so interactive callers get per-line latency while
// pipelined load gets batch-sized dedup and grouped evaluation — and
// flushes after every chunk. A malformed or oversized line yields a
// per-line RequestError verdict and never tears down the connection:
// the stream continues with the next line.
//
// The pipeline is allocation-free at steady state: every connection
// checks one connScratch out of a pool — the line buffer, decoded
// chunk, request/error slices, response encode buffer and the 64 KiB
// body reader all live there and are reused across chunks and across
// connections. Request lines decode through the hand-rolled
// sortnets.UnmarshalRequestLine (same strict semantics as the old
// json.Decoder path); response lines encode through
// sortnets.AppendBatchVerdict (byte-identical to encoding/json) into
// one buffer written with a single Write per chunk.

// maxChunkLines bounds how many pipelined lines feed one DoBatch
// call; it caps handler memory, not the stream length (a connection
// may carry any number of chunks).
const maxChunkLines = 256

// maxLineBytes bounds one NDJSON line, matching the single-request
// body bound. Longer lines are discarded to the newline and answered
// with a per-line 400.
const maxLineBytes = maxBodyBytes

// connScratch is the per-connection working set. Everything a chunk
// cycle touches lives here so the steady-state serve path performs no
// per-line or per-chunk allocation.
type connScratch struct {
	br        *bufio.Reader
	line      []byte
	chunk     []chunkLine
	reqs      []sortnets.Request
	entryErrs []error
	out       []byte

	// accounted is this scratch's last contribution to the
	// pooledBytes gauge; the finalizer retires it when the pool drops
	// the scratch. It is a separate allocation so the finalizer
	// closure does not retain the scratch.
	accounted *int64
}

// pooledBytes gauges the buffer bytes currently parked in (or checked
// out of) the connection-scratch pool, surfaced on /stats as
// pooled_bytes.
var pooledBytes atomic.Int64

var scratchPool = sync.Pool{New: func() any {
	sc := &connScratch{
		br:        bufio.NewReaderSize(nil, 64<<10),
		accounted: new(int64),
	}
	acct := sc.accounted
	runtime.SetFinalizer(sc, func(*connScratch) {
		pooledBytes.Add(-atomic.LoadInt64(acct))
	})
	return sc
}}

// size reports the retained buffer bytes (the reader's fixed 64 KiB
// plus the grown slices).
func (sc *connScratch) size() int64 {
	return int64(64<<10 + cap(sc.line) + cap(sc.out) +
		cap(sc.chunk)*int(unsafeSizeofChunkLine) +
		cap(sc.reqs)*int(unsafeSizeofRequest) +
		cap(sc.entryErrs)*16)
}

// Element sizes for the gauge, kept as constants so size() stays
// arithmetic (unsafe.Sizeof would drag unsafe into the import graph
// for a stats nicety; these only need to be order-of-magnitude
// honest).
const (
	unsafeSizeofChunkLine = 136
	unsafeSizeofRequest   = 128
)

func getScratch(body io.Reader) *connScratch {
	sc := scratchPool.Get().(*connScratch)
	sc.br.Reset(body)
	return sc
}

func putScratch(sc *connScratch) {
	sc.br.Reset(nil)
	n := sc.size()
	pooledBytes.Add(n - atomic.LoadInt64(sc.accounted))
	atomic.StoreInt64(sc.accounted, n)
	scratchPool.Put(sc)
}

// PooledBytes reports the gauge (exported for /stats).
func PooledBytes() int64 { return pooledBytes.Load() }

// ndjsonContentType reports whether the request declares an NDJSON
// body (application/x-ndjson, case-insensitive, with or without
// parameters — media types are case-insensitive per RFC 7231).
func ndjsonContentType(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == "application/x-ndjson"
}

// serveNDJSON streams batch verdicts for one NDJSON connection.
func (s *Service) serveNDJSON(w http.ResponseWriter, r *http.Request) {
	s.streamLines(w, r, s.writeChunk)
}

// streamLines runs the NDJSON line protocol on one connection: read an
// adaptive chunk of request lines, let answer write the chunk's
// response lines in order (false = the connection is dead), flush,
// repeat to the end of the body. Batches on /do and peer fill probes
// (peer.go) share it.
func (s *Service) streamLines(w http.ResponseWriter, r *http.Request, answer func(*http.Request, io.Writer, *connScratch) bool) {
	// Full duplex lets us write response lines while the client is
	// still streaming request lines (HTTP/1.1 pipelining). Best
	// effort: on transports that don't support it, the handler still
	// works for clients that send the whole body first.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	sc := getScratch(r.Body)
	defer putScratch(sc)
	for {
		done := readChunk(sc)
		if len(sc.chunk) > 0 && !answer(r, w, sc) {
			return
		}
		if len(sc.chunk) > 0 {
			_ = rc.Flush()
		}
		if done {
			return
		}
		// A draining server finishes the chunk in flight, then ends
		// the stream: the client sees a short response, and its Pool
		// re-sends the unanswered remainder to a backend whose
		// readiness probe still passes (a fill prober computes it).
		if s.draining.Load() {
			return
		}
	}
}

// chunkLine is one decoded (or rejected) request line awaiting its
// response line.
type chunkLine struct {
	req sortnets.Request
	err *sortnets.RequestError // decode failure: answered without a Session trip
}

// lineTooLongErr is the fixed per-line 400 for oversized lines. The
// message never varies, so one shared error serves every rejection
// instead of formatting (and allocating) it per line — the line-length
// rejection path is client-drivable at line rate.
var lineTooLongErr = &sortnets.RequestError{
	Status: http.StatusBadRequest,
	Msg:    fmt.Sprintf("request line exceeds %d bytes", maxLineBytes),
}

// readChunk reads one adaptive chunk into sc.chunk: it blocks for the
// first line, then keeps sweeping lines while the reader has buffered
// bytes, up to maxChunkLines. done reports end of body (EOF or a read
// error — either way the connection has no more requests).
func readChunk(sc *connScratch) (done bool) {
	sc.chunk = sc.chunk[:0]
	for len(sc.chunk) < maxChunkLines {
		if len(sc.chunk) > 0 && sc.br.Buffered() == 0 {
			return false // answer what's pipelined before blocking again
		}
		var tooLong bool
		var err error
		sc.line, tooLong, err = readLine(sc.br, sc.line[:0], maxLineBytes)
		if tooLong {
			sc.chunk = append(sc.chunk, chunkLine{err: lineTooLongErr})
			continue
		}
		if len(bytes.TrimSpace(sc.line)) > 0 {
			sc.chunk = append(sc.chunk, chunkLine{})
			decodeLine(sc.line, &sc.chunk[len(sc.chunk)-1])
		}
		if err != nil {
			return true
		}
	}
	return false
}

// decodeLine decodes one request line into cl, mapping failures to
// the per-line error form. The target is reused scratch; the decoder
// fully resets it.
func decodeLine(line []byte, cl *chunkLine) {
	cl.err = nil
	if err := sortnets.UnmarshalRequestLine(line, &cl.req); err != nil {
		cl.err = &sortnets.RequestError{
			Status: http.StatusBadRequest,
			Msg:    fmt.Sprintf("bad request line: %v", err),
		}
	}
}

// writeChunk runs the chunk's decodable lines through one DoBatch,
// encodes every line's response in request order into the scratch
// buffer, and writes it with one Write. Undecodable lines count as
// requests rejected before the Session. It returns false when the
// connection is dead (context cancelled or a write failed).
func (s *Service) writeChunk(r *http.Request, w io.Writer, sc *connScratch) bool {
	sc.reqs = sc.reqs[:0]
	for i := range sc.chunk {
		if sc.chunk[i].err == nil {
			sc.reqs = append(sc.reqs, sc.chunk[i].req)
		} else {
			s.httpRejected.Add(1)
		}
	}
	if cap(sc.entryErrs) < len(sc.reqs) {
		sc.entryErrs = make([]error, len(sc.reqs))
	} else {
		sc.entryErrs = sc.entryErrs[:len(sc.reqs)]
		for i := range sc.entryErrs {
			sc.entryErrs[i] = nil
		}
	}
	entryErrs := sc.entryErrs
	var verdicts []*sortnets.Verdict
	if len(sc.reqs) > 0 { // an all-malformed chunk never counts a batch
		var err error
		verdicts, err = s.doBatch(r.Context(), sc.reqs)
		var be *sortnets.BatchError
		switch {
		case err == nil:
		case errors.As(err, &be):
			entryErrs = be.Errs
		case r.Context().Err() != nil:
			// Whole-batch failure with the client gone: nothing left
			// to write to.
			return false
		default:
			// Whole-batch failure on a LIVE connection — shed by the
			// admission gate, the compute deadline, or a recovered
			// panic. Answer every line with the typed error and keep
			// the stream open: the client's Pool re-sends just these
			// entries elsewhere.
			re := wholeBatchError(err)
			verdicts = make([]*sortnets.Verdict, len(sc.reqs))
			for i := range entryErrs {
				entryErrs[i] = re
			}
		}
	}
	sc.out = sc.out[:0]
	vi := 0
	for i := range sc.chunk {
		var line sortnets.BatchVerdict
		if sc.chunk[i].err != nil {
			line = sortnets.BatchVerdict{ID: sc.chunk[i].req.ID, Error: sc.chunk[i].err}
		} else {
			v, entryErr := verdicts[vi], entryErrs[vi]
			vi++
			switch {
			case entryErr != nil:
				var re *sortnets.RequestError
				if !errors.As(entryErr, &re) {
					re = &sortnets.RequestError{Status: http.StatusInternalServerError, Msg: entryErr.Error()}
				}
				line = sortnets.BatchVerdict{ID: sc.chunk[i].req.ID, Error: re}
			default:
				line = sortnets.BatchVerdict{ID: v.ID, Verdict: v, Source: v.Source}
			}
		}
		sc.out = sortnets.AppendBatchVerdict(sc.out, &line)
		sc.out = append(sc.out, '\n')
	}
	_, err := w.Write(sc.out)
	return err == nil
}

// wholeBatchError maps a whole-batch failure on a live NDJSON
// connection to the per-line error every entry in the chunk gets.
func wholeBatchError(err error) *sortnets.RequestError {
	var re *sortnets.RequestError
	switch {
	case errors.Is(err, errShed):
		return &sortnets.RequestError{
			Status:     http.StatusTooManyRequests,
			Msg:        "server saturated; retry after " + shedRetryAfter.String(),
			RetryAfter: RetryAfterSeconds(shedRetryAfter),
		}
	case errors.As(err, &re):
		return re
	default:
		return &sortnets.RequestError{Status: http.StatusInternalServerError, Msg: err.Error()}
	}
}

// readLine reads one newline-terminated line (without the newline)
// into buf, accumulating at most max bytes. Longer lines are consumed
// to their newline but reported tooLong with no content, so the
// stream can continue at the next line. err is non-nil at end of
// body; a final unterminated line is still returned.
//
//sortnets:hotpath
func readLine(br *bufio.Reader, buf []byte, max int) (line []byte, tooLong bool, err error) {
	line = buf
	for {
		frag, ferr := br.ReadSlice('\n')
		if !tooLong {
			if len(line)+len(frag) > max {
				tooLong, line = true, line[:0]
			} else {
				line = append(line, frag...)
			}
		}
		switch ferr {
		case nil:
			if !tooLong {
				line = bytes.TrimSuffix(line, []byte("\n"))
				line = bytes.TrimSuffix(line, []byte("\r"))
			}
			return line, tooLong, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return line, tooLong, ferr
		}
	}
}

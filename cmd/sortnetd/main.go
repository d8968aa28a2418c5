// Command sortnetd is the long-running batch verification service: a
// caching, coalescing, sharded HTTP front end over the compiled
// evaluation stack (see internal/serve).
//
// Usage:
//
//	sortnetd -addr :8357 -workers 0 -cache-size 4096
//
// Endpoints:
//
//	POST /do      one Request in, one Verdict out; the op comes from the
//	              body: "verify" (the default; sorter | selector | merger
//	              verdict), "faults" (fault coverage of the property's
//	              minimal test set) or "minset" (minimal detecting subset
//	              of that test set). With Content-Type
//	              application/x-ndjson, a streaming batch: one Request per
//	              line in, one BatchVerdict per line out as chunks complete
//	GET  /healthz readiness probe (503 while draining or saturated)
//	GET  /livez   liveness probe
//	GET  /stats   per-op counters + batch pipeline + cache occupancy
//
// Examples:
//
//	curl -s localhost:8357/do -d '{"network":"n=4: [1,2][3,4][1,3][2,4][2,3]"}'
//	curl -s localhost:8357/do -d '{"op":"faults","network":"n=4: [1,2][3,4][1,3][2,4][2,3]"}'
//	printf '%s\n%s\n' '{"id":"a","network":"n=4: [1,2][3,4][1,3][2,4][2,3]"}' \
//	                  '{"id":"b","network":"n=4: [1,2][3,4]"}' |
//	  curl -s localhost:8357/do -H 'Content-Type: application/x-ndjson' --data-binary @-
//
// Batched submissions are deduplicated within the batch and verify
// entries of one width and property share a single grouped engine
// pass — the batch-first request model (see the client package's
// DoBatch/Stream for the programmatic face).
//
// Results are cached by the canonical digest of the network
// (internal/canon), so structurally equivalent submissions — the same
// circuit with its parallel layers interleaved differently — share
// one cache entry and replay byte-identical verdicts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sortnets/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8357", "listen address")
	workers := flag.Int("workers", 0, "concurrent verdict computations: 0 = automatic (all cores), k = exactly k")
	cacheSize := flag.Int("cache-size", 4096, "verdict cache capacity in entries")
	maxLines := flag.Int("max-lines", 20, "largest line count accepted for verify requests")
	maxFaultLines := flag.Int("max-fault-lines", 12, "largest line count accepted for faults and minset requests")
	maxInflight := flag.Int("max-inflight", 0, "admission gate: requests allowed past the HTTP layer at once; 0 = max(64, 8×workers)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "admission gate: longest a request may wait for a slot before a 429 shed")
	computeTimeout := flag.Duration("compute-timeout", 0, "per-request compute deadline (504 past it); 0 disables")
	drainGrace := flag.Duration("drain-grace", 250*time.Millisecond, "on SIGTERM: lame-duck window between failing readiness and closing the listener")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM: hard deadline for in-flight work before connections are cut")
	shardID := flag.String("shard-id", "", "this node's name in a cluster (the loop-prevention hop marker on peer probes); set it whenever -peers is")
	peers := flag.String("peers", "", "comma-separated sibling shard base URLs consulted fill-only on every verdict-cache miss; empty disables the peer plane")
	peerTimeout := flag.Duration("peer-timeout", 100*time.Millisecond, "budget for one miss's whole peer consultation (all peers together)")
	flag.Parse()

	cfg := serve.Config{
		Workers:        *workers,
		CacheSize:      *cacheSize,
		MaxLines:       *maxLines,
		MaxFaultLines:  *maxFaultLines,
		MaxInflight:    *maxInflight,
		QueueWait:      *queueWait,
		ComputeTimeout: *computeTimeout,
		ShardID:        *shardID,
		Peers:          splitPeers(*peers),
		PeerTimeout:    *peerTimeout,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sortnetd:", err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM start the graceful drain: readiness fails first
	// (load balancers and client Pools route away), in-flight work
	// finishes under the hard deadline, then listeners close and the
	// compute pool is released. A second signal exits immediately.
	drain := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("sortnetd: %v, draining (grace %v, hard deadline %v; signal again to exit now)",
			s, *drainGrace, *drainTimeout)
		close(drain)
		s = <-sigs
		log.Printf("sortnetd: %v again, exiting immediately", s)
		os.Exit(1)
	}()
	opts := drainOptions{grace: *drainGrace, deadline: *drainTimeout}
	if err := run(ln, cfg, opts, drain, log.Printf); err != nil {
		fmt.Fprintln(os.Stderr, "sortnetd:", err)
		os.Exit(1)
	}
}

// drainOptions shapes the graceful-shutdown sequence: grace is the
// lame-duck window between failing readiness and closing the
// listener; deadline is the hard bound on in-flight work after that.
type drainOptions struct {
	grace    time.Duration
	deadline time.Duration
}

// run serves the verification API on ln until the listener closes or
// drain fires, then shuts down gracefully: readiness fails, in-flight
// handlers (NDJSON chunks included) finish under the hard deadline,
// and only then is the service's compute pool released (closing the
// pool under active requests would panic).
func run(ln net.Listener, cfg serve.Config, opts drainOptions, drain <-chan struct{}, logf func(string, ...any)) error {
	svc := serve.NewService(cfg)
	defer svc.Close()
	logf("sortnetd: listening on %s (workers=%d, cache=%d entries, max-lines=%d)",
		ln.Addr(), svc.Stats().Workers, cfg.CacheSize, cfg.MaxLines)
	if len(cfg.Peers) > 0 {
		logf("sortnetd: cluster shard %q, peer fill from %v (budget %v per miss)",
			cfg.ShardID, cfg.Peers, cfg.PeerTimeout)
	}
	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var err error
	select {
	case <-drain:
		// Phase 1: fail readiness so probers and client Pools route
		// away while we still answer everything in flight.
		svc.Drain()
		logf("sortnetd: draining — readiness failing, in-flight work finishing")
		if opts.grace > 0 {
			time.Sleep(opts.grace)
		}
		// Phase 2: stop accepting, finish in-flight handlers under
		// the hard deadline.
		ctx, cancel := context.WithTimeout(context.Background(), opts.deadline)
		err = srv.Shutdown(ctx)
		cancel()
		<-serveErr // Serve has returned ErrServerClosed
		if err != nil {
			// Phase 3: the deadline expired with handlers still
			// running (e.g. an idle NDJSON stream waiting for client
			// lines) — cut them.
			logf("sortnetd: drain deadline exceeded, forcing close: %v", err)
			srv.Close()
		}
	case err = <-serveErr:
		// The listener was closed out from under us (tests do this)
		// or accept failed: drain in-flight handlers the same way.
		ctx, cancel := context.WithTimeout(context.Background(), opts.deadline)
		if shutdownErr := srv.Shutdown(ctx); shutdownErr != nil && err == nil {
			err = shutdownErr
		}
		cancel()
	}
	if err != nil && (errors.Is(err, http.ErrServerClosed) || isClosedListener(err) || errors.Is(err, context.DeadlineExceeded)) {
		return nil
	}
	return err
}

// splitPeers parses the -peers flag: comma-separated base URLs,
// blanks dropped so trailing commas are harmless.
func splitPeers(s string) []string {
	var urls []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, p)
		}
	}
	return urls
}

// isClosedListener reports whether err is the accept error http.Serve
// returns when the listener is closed out from under it — a normal
// shutdown, not a failure. Only the listener-closed case qualifies;
// any other accept failure must surface as an error exit.
func isClosedListener(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// Command adversary builds the Lemma 2.1 almost-sorter H_σ for a given
// non-sorted binary string σ: the network that sorts every input
// except σ. It prints the construction case, the network, its diagram,
// and a self-check that the contract holds — the constructive proof
// that σ can never be dropped from a sorter test set.
//
// Usage:
//
//	adversary -sigma 0110
//	adversary -sigma 1001100 -quiet     # just the network line
//
// With -load it turns adversarial in the operational sense instead: a
// load generator that hammers running sortnetd instances with random
// networks and reports sustained requests/sec plus the servers' own
// /stats counters. -load takes a comma-separated list of base URLs;
// requests flow through a client.Pool, so a replica that dies mid-run
// is routed around (breaker + failover + partial batch retry) and the
// run records failures instead of dying on the first one. -timeout
// bounds the whole run: requests carry the deadline's context, so when
// it expires the in-flight HTTP requests are torn down — and with them
// the verdict computations inside the server, which observe the
// disconnect through the same context plumbing and release their pool
// slots.
//
//	adversary -load http://localhost:8357 -requests 5000 -concurrency 16
//	adversary -load http://localhost:8357,http://localhost:8358          # 2 replicas, failover
//	adversary -load http://localhost:8357 -distinct 4   # mostly cache hits
//	adversary -load http://localhost:8357 -timeout 10s
//
// -batch N switches the generator to the batch-first request model:
// each round trip ships N requests as one NDJSON batch through the
// pool's DoBatch, so the server deduplicates within the batch and runs
// same-width verify entries through one grouped engine pass — and a
// shed or failed entry is re-sent alone, not with its whole batch.
//
// Every run prints an order-independent checksum over the verdict
// bytes it received. Verdicts are deterministic, so two runs over the
// same seed and request set must print the same checksum no matter
// which replicas answered, how many retries it took, or in what order
// the workers finished — the byte-identity check that makes failover
// provable from the outside:
//
//	adversary -load http://a:8357,http://b:8357 -requests 20000 -batch 64
//	# kill and restart either replica mid-run: 0 failed, same checksum
//
// -chaos puts a deterministic fault-injection proxy (internal/chaos)
// in front of every backend for the duration of the run. The spec is a
// comma-separated fault list; each fault is name@probability, latency
// takes a duration:
//
//	adversary -load http://localhost:8357 -chaos 'latency=5ms@0.5,reset@0.02,partial@0.2' -chaos-seed 7
//
// Faults: latency=DUR@P (delay a fragment), reset@P (RST mid-stream),
// truncate@P (drop half a fragment, then RST), partial@P (split a
// fragment in two writes), blackhole@P (swallow a whole connection).
// The proxies' fault tallies are printed after the run.
//
// Alongside req/s, load mode reports the CLIENT process's allocation
// cost from runtime.ReadMemStats deltas — allocs per request, bytes
// per request, GC cycles and total GC pause — so a zero-alloc serve
// path can be verified end to end from the consuming side.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sortnets"
	"sortnets/client"
	"sortnets/internal/bitvec"
	"sortnets/internal/chaos"
	"sortnets/internal/core"
	"sortnets/internal/network"
)

func main() {
	sigma := flag.String("sigma", "", "non-sorted binary string, e.g. 0110")
	quiet := flag.Bool("quiet", false, "print only the network text form")
	load := flag.String("load", "", "comma-separated sortnetd base URLs: run the load generator instead of the Lemma 2.1 construction")
	requests := flag.Int("requests", 2000, "load mode: total requests to send")
	concurrency := flag.Int("concurrency", 8, "load mode: concurrent client workers")
	n := flag.Int("n", 8, "load mode: lines per random network")
	size := flag.Int("size", 19, "load mode: comparators per random network")
	distinct := flag.Int("distinct", 32, "load mode: distinct networks cycled through (fewer = more cache hits)")
	batch := flag.Int("batch", 1, "load mode: requests per round trip (1 = single-shot POSTs, >1 = NDJSON batches via DoBatch)")
	cluster := flag.Bool("cluster", false, "load mode: treat the -load URLs as a digest-sharded cluster and route each request to its owner shard")
	seed := flag.Int64("seed", 1, "load mode: random-network seed")
	timeout := flag.Duration("timeout", 0, "load mode: overall deadline (0 = none); expiring aborts in-flight requests")
	chaosSpec := flag.String("chaos", "", "load mode: fault plan proxied in front of every backend, e.g. 'latency=5ms@0.5,reset@0.02,partial@0.2'")
	chaosSeed := flag.Int64("chaos-seed", 1, "load mode: seed for the -chaos fault schedule")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var err error
	if *load != "" {
		err = loadRun(ctx, os.Stdout, loadCfg{
			targets:     splitTargets(*load),
			requests:    *requests,
			concurrency: *concurrency,
			n:           *n,
			size:        *size,
			distinct:    *distinct,
			batch:       *batch,
			cluster:     *cluster,
			seed:        *seed,
			chaosSpec:   *chaosSpec,
			chaosSeed:   *chaosSeed,
		})
	} else {
		err = run(os.Stdout, *sigma, *quiet)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adversary:", err)
		os.Exit(2)
	}
}

func run(out io.Writer, sigma string, quiet bool) error {
	if sigma == "" {
		return errors.New("missing -sigma (or -load for the load generator)")
	}
	v, err := bitvec.FromString(sigma)
	if err != nil {
		return err
	}
	h, err := core.AlmostSorter(v)
	if err != nil {
		return err
	}
	if quiet {
		fmt.Fprintln(out, h.Format())
		return nil
	}
	fmt.Fprintf(out, "sigma = %s  (construction case %s)\n", v, core.ClassifyAlmostSorter(v))
	fmt.Fprintf(out, "H_sigma = %s  (%d comparators, depth %d)\n\n", h, h.Size(), h.Depth())
	fmt.Fprint(out, h.Diagram())
	fmt.Fprintf(out, "\nH_sigma(%s) = %s  (not sorted)\n", v, h.ApplyVec(v))
	if err := core.VerifyAlmostSorter(h, v); err != nil {
		return fmt.Errorf("self-check failed: %v", err)
	}
	fmt.Fprintf(out, "self-check: sorts all %d other inputs: ok\n", bitvec.Universe(v.N)-1)
	return nil
}

// splitTargets parses the -load flag's comma-separated URL list.
func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// loadCfg parameterizes one load run (the -load flag family).
type loadCfg struct {
	targets     []string // sortnetd base URLs (≥ 1); the pool fails over between them
	requests    int
	concurrency int
	n, size     int
	distinct    int
	batch       int  // 1 = single-shot, > 1 = NDJSON batches of this size
	cluster     bool // route each request to its digest-owner shard
	seed        int64
	chaosSpec   string // non-empty: proxy every target through this fault plan
	chaosSeed   int64
}

// parseChaosPlan decodes the -chaos spec: comma-separated faults of
// the form name@prob, with latency taking latency=DUR@prob.
func parseChaosPlan(spec string, seed int64) (chaos.Plan, error) {
	plan := chaos.Plan{Seed: seed}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, probStr, ok := strings.Cut(item, "@")
		if !ok {
			return plan, fmt.Errorf("chaos fault %q: want name@probability", item)
		}
		prob, err := strconv.ParseFloat(probStr, 64)
		if err != nil || prob < 0 || prob > 1 {
			return plan, fmt.Errorf("chaos fault %q: bad probability %q", item, probStr)
		}
		switch {
		case strings.HasPrefix(name, "latency="):
			d, err := time.ParseDuration(strings.TrimPrefix(name, "latency="))
			if err != nil {
				return plan, fmt.Errorf("chaos fault %q: %v", item, err)
			}
			plan.Latency, plan.LatencyProb = d, prob
		case name == "reset":
			plan.ResetProb = prob
		case name == "truncate":
			plan.TruncateProb = prob
		case name == "partial":
			plan.PartialProb = prob
		case name == "blackhole":
			plan.BlackholeProb = prob
		default:
			return plan, fmt.Errorf("chaos fault %q: unknown fault (want latency=DUR, reset, truncate, partial, blackhole)", item)
		}
	}
	return plan, nil
}

// hostport strips the http:// scheme off a base URL, yielding the TCP
// address a chaos proxy dials.
func hostport(base string) string {
	return strings.TrimPrefix(strings.TrimRight(base, "/"), "http://")
}

// loadRun drives one or more sortnetd replicas through a client.Pool:
// distinct random networks are pre-rendered, then concurrency workers
// push verify requests over them — pool.Do per request with batch ==
// 1, or NDJSON batches of `batch` requests through pool.DoBatch
// otherwise. Failures are recorded and the run CONTINUES — the tally,
// not the first transport hiccup, is the result — while the pool
// retries, backs off and fails over underneath. Every verdict received
// feeds an order-independent checksum, so runs over the same seed are
// byte-comparable no matter which replica answered each request. It
// reports client-side throughput, the source breakdown (hit /
// coalesced / computed), the pool's resilience counters, and then
// echoes each server's /stats.
func loadRun(ctx context.Context, out io.Writer, cfg loadCfg) error {
	if len(cfg.targets) == 0 {
		return errors.New("need at least one -load URL")
	}
	if cfg.requests < 1 || cfg.concurrency < 1 || cfg.distinct < 1 || cfg.batch < 1 {
		return errors.New("need positive -requests, -concurrency, -distinct, -batch")
	}
	if cfg.n < 2 {
		return errors.New("-n must be at least 2")
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	nets := make([]string, cfg.distinct)
	for i := range nets {
		nets[i] = network.Random(cfg.n, cfg.size, rng).Format()
	}

	// -chaos: interpose a deterministic fault proxy per backend.
	endpoints := cfg.targets
	var proxies []*chaos.Proxy
	if cfg.chaosSpec != "" {
		plan, err := parseChaosPlan(cfg.chaosSpec, cfg.chaosSeed)
		if err != nil {
			return err
		}
		endpoints = make([]string, len(cfg.targets))
		for i, t := range cfg.targets {
			p, err := chaos.New(hostport(t), plan)
			if err != nil {
				return err
			}
			proxies = append(proxies, p)
			endpoints[i] = p.URL()
		}
		defer func() {
			for _, p := range proxies {
				p.Close()
			}
		}()
	}

	popts := []client.PoolOption{client.WithJitterSeed(cfg.seed)}
	if cfg.cluster {
		popts = append(popts, client.WithShardRouting(0))
	}
	pool, err := client.NewPool(endpoints, popts...)
	if err != nil {
		return err
	}
	defer pool.Close()

	var next, errs atomic.Int64
	var hits, misses, coalesced atomic.Int64
	var checksum atomic.Uint64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errs.Add(1)
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	// record folds one verdict into the tallies and the
	// order-independent checksum: verdict bodies are deterministic
	// bytes, so summing their hashes is invariant across worker
	// interleaving, retries and replica choice.
	record := func(v *sortnets.Verdict) {
		switch v.Source {
		case "hit":
			hits.Add(1)
		case "coalesced":
			coalesced.Add(1)
		default:
			misses.Add(1)
		}
		body, err := sortnets.MarshalVerdict(v)
		if err != nil {
			fail(err)
			return
		}
		h := fnv.New64a()
		h.Write(body)
		checksum.Add(h.Sum64())
	}
	worker := func() {
		for {
			i := next.Add(1) - 1
			if i >= int64(cfg.requests) || ctx.Err() != nil {
				return
			}
			v, err := pool.Do(ctx, sortnets.Request{Network: nets[i%int64(cfg.distinct)]})
			if err != nil {
				fail(err)
				continue
			}
			record(v)
		}
	}
	if cfg.batch > 1 {
		worker = func() {
			for {
				lo := next.Add(int64(cfg.batch)) - int64(cfg.batch)
				if lo >= int64(cfg.requests) || ctx.Err() != nil {
					return
				}
				hi := lo + int64(cfg.batch)
				if hi > int64(cfg.requests) {
					hi = int64(cfg.requests)
				}
				reqs := make([]sortnets.Request, 0, hi-lo)
				for i := lo; i < hi; i++ {
					reqs = append(reqs, sortnets.Request{Network: nets[i%int64(cfg.distinct)]})
				}
				vs, err := pool.DoBatch(ctx, reqs)
				var be *sortnets.BatchError
				if err != nil && !errors.As(err, &be) {
					// A whole-batch failure (deadline, every retry
					// exhausted) lost each request in it — errs counts
					// requests, not round trips, so ok/hit/miss add up.
					for range reqs {
						fail(err)
					}
					continue
				}
				for j := range reqs {
					if be != nil && be.Errs[j] != nil {
						fail(be.Errs[j])
						continue
					}
					record(vs[j])
				}
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	ok := int64(cfg.requests) - errs.Load()
	fmt.Fprintf(out, "load: %d requests (%d distinct %d-line networks) over %d backend(s), %d workers, batch=%d\n",
		cfg.requests, cfg.distinct, cfg.n, len(cfg.targets), cfg.concurrency, cfg.batch)
	fmt.Fprintf(out, "done in %v: %.0f req/s, %d ok (%d hit / %d coalesced / %d computed), %d failed\n",
		elapsed.Round(time.Millisecond), float64(cfg.requests)/elapsed.Seconds(),
		ok, hits.Load(), coalesced.Load(), misses.Load(), errs.Load())
	if firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", firstErr)
	}
	// The byte-identity line: same seed + same request set ⇒ same
	// checksum, regardless of replica, retries or completion order.
	fmt.Fprintf(out, "verdict checksum %016x over %d verdicts (order-independent)\n",
		checksum.Load(), ok)
	// Client-side allocation cost of the run, from MemStats deltas:
	// the generator shares the zero-alloc wire path with the server,
	// so allocs/req here is the end-to-end client-library figure.
	fmt.Fprintf(out, "client mem: %.1f allocs/req, %.0f B/req, %d GCs, %v total GC pause\n",
		float64(m1.Mallocs-m0.Mallocs)/float64(cfg.requests),
		float64(m1.TotalAlloc-m0.TotalAlloc)/float64(cfg.requests),
		m1.NumGC-m0.NumGC,
		time.Duration(m1.PauseTotalNs-m0.PauseTotalNs).Round(time.Microsecond))
	pst := pool.Stats()
	fmt.Fprintf(out, "pool: %d retries, %d failovers, %d unavailable, %d hedges (%d won)\n",
		pst.Retries, pst.Failovers, pst.Unavailable, pst.Hedges, pst.HedgeWins)
	if cfg.cluster {
		// The shard-distribution line: under digest routing each
		// backend's share of requests IS the ring's partition of the
		// workload (failover traffic aside).
		var total int64
		for _, b := range pst.Backends {
			total += b.Requests
		}
		fmt.Fprintf(out, "cluster: %d routed by digest, %d unroutable (round-robin)\n",
			pst.Routed, pst.Unrouted)
		for _, b := range pst.Backends {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(b.Requests) / float64(total)
			}
			fmt.Fprintf(out, "cluster shard %s: %d requests (%.1f%%)\n", b.URL, b.Requests, pct)
		}
	}
	for _, b := range pst.Backends {
		fmt.Fprintf(out, "pool backend %s: %s, %d requests, %d failures, %d/%d probes failed\n",
			b.URL, b.State, b.Requests, b.Failures, b.ProbeFails, b.Probes)
	}
	for _, p := range proxies {
		fmt.Fprintln(out, p.String())
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("load aborted by deadline after %d requests: %w", next.Load(), err)
	}

	// Echo each replica's own view (through the real targets, not the
	// chaos proxies — observability should not roll the fault dice).
	for _, t := range cfg.targets {
		stats, err := client.New(t).Stats(ctx)
		if err != nil {
			fmt.Fprintf(out, "server /stats %s: unavailable: %v\n", t, err)
			continue
		}
		fmt.Fprintf(out, "server /stats %s: %s", t, stats)
	}
	return nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sortnets"
	"sortnets/client"
	"sortnets/internal/serve"
)

// env is one set-up instance of the system under test: the replicas,
// each serve.NewService behind net/http on a loopback listener, and
// the client.Pool that drives them.
type env struct {
	svcs    []*serve.Service
	srvs    []*http.Server
	serving sync.WaitGroup // one per Serve goroutine
	pool    *client.Pool
}

// setUp builds the replicas and the pool and runs the warm-up, so that
// the listeners are up and caches and lazy state are filled. A non-nil
// tracer wraps every handler, the pool's transport and the replicas'
// peer probes.
func setUp(w *workload, in *inputSet, tr *tracer) (*env, error) {
	lns := make([]net.Listener, w.replicas)
	urls := make([]string, w.replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	e := &env{}
	for i, ln := range lns {
		var cfg serve.Config
		if w.replicas > 1 {
			cfg.ShardID = "s" + strconv.Itoa(i)
			for j, u := range urls {
				if j != i {
					cfg.Peers = append(cfg.Peers, u)
				}
			}
			if tr != nil {
				cfg.PeerHTTPClient = tr.peerClient(i)
			}
		}
		svc := serve.NewService(cfg)
		var h http.Handler = svc.Handler()
		if tr != nil {
			h = tr.handler(i, h)
		}
		srv := &http.Server{Handler: h}
		e.svcs, e.srvs = append(e.svcs, svc), append(e.srvs, srv)
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			srv.Serve(ln) // returns http.ErrServerClosed once close runs
		}()
	}
	// No health prober: it would open connections beyond the callers'
	// own, and a fault-free run never opens a breaker.
	opts := []client.PoolOption{client.WithHealthInterval(0)}
	if tr != nil {
		opts = append(opts, client.WithPoolHTTPClient(tr.client))
	}
	pool, err := client.NewPool(urls, opts...)
	if err != nil {
		e.close()
		return nil, err
	}
	e.pool = pool
	if err := e.warmUp(w, in); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the pool and the servers, waits for the Serve goroutines
// and releases the Sessions. No call may be in flight.
func (e *env) close() {
	if e.pool != nil {
		e.pool.Close()
	}
	for _, srv := range e.srvs {
		srv.Close()
	}
	e.serving.Wait()
	for _, svc := range e.svcs {
		svc.Close()
	}
}

// warmUp sends the workload's warm-up units with its own connection
// count and checks only that each call succeeds.
func (e *env) warmUp(w *workload, in *inputSet) error {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= w.warmUnits {
					return
				}
				reqs, _ := w.unit(in.warmReqs, k)
				var err error
				if w.batch == 1 {
					_, err = e.pool.Do(context.Background(), reqs[0])
				} else {
					_, err = e.pool.DoBatch(context.Background(), reqs)
				}
				if err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d of %d calls failed", n, w.warmUnits)
	}
	return nil
}

func (e *env) stats() ([]serve.StatsSnapshot, client.PoolStats) {
	st := make([]serve.StatsSnapshot, len(e.svcs))
	for i, svc := range e.svcs {
		st[i] = svc.Stats()
	}
	return st, e.pool.Stats()
}

// sampleInflight samples the replicas' summed admission-gate gauge
// every 5 ms until stop closes.
func (e *env) sampleInflight(stop <-chan struct{}) []int64 {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	var out []int64
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
			var n int64
			for _, svc := range e.svcs {
				n += svc.Stats().Resilience.Inflight
			}
			out = append(out, n)
		}
	}
}

// phase is one measured stretch of traffic against one env. Counts are
// of verdict requests: a batch counts its entries.
type phase struct {
	lat, lag          []time.Duration // per batch's sends from the due time; open-loop lateness
	units             int             // Pool calls made
	attempted, failed int64
	wall, cpu         time.Duration
	mem0, mem1        runtimeMem
	svc0, svc1        []serve.StatsSnapshot
	pool0, pool1      client.PoolStats
	inflight          []int64
	verifies, holding int64
	runRatio          float64 // Σ testsRun ÷ minimal-set size over verify verdicts
	minsets, exact    int64
}

func (ph *phase) verdicts() int64 { return ph.attempted - ph.failed }

// sender is one caller's share of a phase, merged when the phase ends.
type sender struct {
	lat               []time.Duration
	units             int
	attempted, failed int64
	verifies, holding int64
	runRatio          float64
	minsets, exact    int64
}

// drive runs the workload's traffic for dur and measures it. Closed
// loops run w.conns callers back to back; open loops release units on
// a fixed-rate schedule to w.conns senders, so latency includes any
// wait for a free connection.
func (e *env) drive(w *workload, in *inputSet, dur time.Duration, chk *checker, tr *tracer, sampleInflight bool) *phase {
	ph := &phase{}
	senders := make([]sender, w.conns)
	var stop chan struct{}
	var sampling sync.WaitGroup
	if sampleInflight {
		stop = make(chan struct{})
		sampling.Add(1)
		go func() {
			defer sampling.Done()
			ph.inflight = e.sampleInflight(stop)
		}()
	}
	ph.svc0, ph.pool0 = e.stats()
	ph.mem0 = readMem()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	if w.rate > 0 {
		sched := &schedule{start: start, rate: w.rate, total: int(w.rate * dur.Seconds())}
		queue := make(chan arrival, sched.total) // holds every arrival, so the generator never blocks
		for i := range senders {
			s := &senders[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for a := range queue {
					e.call(w, in, chk, tr, s, a.k, a.due, true)
				}
			}()
		}
		var due []arrival
		for sched.next < sched.total {
			due = sched.release(time.Now(), due[:0])
			for _, a := range due {
				queue <- a
			}
			if sched.next < sched.total {
				time.Sleep(time.Until(sched.due(sched.next)))
			}
		}
		close(queue)
		ph.lag = sched.lag
	} else {
		// A caller sends a batch its repeat times in a row, and one
		// latency sample covers them all: cluster-fill's compute and
		// adopt sends would otherwise split the samples into two modes
		// with the median on the seam between them.
		deadline := start.Add(dur)
		var next atomic.Int64
		for i := range senders {
			s := &senders[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					k, due := int(next.Add(int64(w.repeat))-int64(w.repeat)), time.Now()
					for r := 0; r < w.repeat; r++ {
						e.call(w, in, chk, tr, s, k+r, due, r == w.repeat-1)
					}
				}
			}()
		}
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.mem1 = readMem()
	ph.svc1, ph.pool1 = e.stats()
	if stop != nil {
		close(stop)
		sampling.Wait()
	}
	for i := range senders {
		s := &senders[i]
		ph.lat = append(ph.lat, s.lat...)
		ph.units += s.units
		ph.attempted += s.attempted
		ph.failed += s.failed
		ph.verifies += s.verifies
		ph.holding += s.holding
		ph.runRatio += s.runRatio
		ph.minsets += s.minsets
		ph.exact += s.exact
	}
	return ph
}

// call sends unit k through the pool and checks every verdict; when
// sample is set it records the latency from due. Traced calls carry
// the unit's trace id (k+1) and record the root span.
func (e *env) call(w *workload, in *inputSet, chk *checker, tr *tracer, s *sender, k int, due time.Time, sample bool) {
	reqs, first := w.unit(in.reqs, k)
	id := uint64(k) + 1
	ctx := context.Background()
	if tr != nil {
		ctx = withTrace(ctx, id)
	}
	s.units++
	s.attempted += int64(len(reqs))
	start := time.Now()
	if w.batch == 1 {
		v, err := e.pool.Do(ctx, reqs[0])
		end := time.Now()
		if sample {
			s.lat = append(s.lat, end.Sub(due))
		}
		if tr != nil {
			tr.root("client.do", id, start, end)
		}
		if err != nil {
			s.failed++
			return
		}
		chk.verdict(s, k, first, v)
		return
	}
	vs, err := e.pool.DoBatch(ctx, reqs)
	end := time.Now()
	if sample {
		s.lat = append(s.lat, end.Sub(due))
	}
	if tr != nil {
		tr.root("client.do_batch", id, start, end)
	}
	var be *sortnets.BatchError
	if err != nil && !errors.As(err, &be) {
		s.failed += int64(len(reqs))
		return
	}
	for j, v := range vs {
		if be != nil && be.Errs[j] != nil {
			s.failed++
			continue
		}
		chk.verdict(s, k*w.batch+j, first+j, v)
	}
}

// schedule is a fixed-rate open-loop arrival plan: arrival k is due
// k/rate seconds after start. Sleeps under a millisecond overshoot by
// about a millisecond on a busy 2-core box, so every wake-up releases
// all arrivals already due, and lag records how late each one left.
type schedule struct {
	start time.Time
	rate  float64
	total int
	next  int
	lag   []time.Duration
}

type arrival struct {
	k   int
	due time.Time
}

func (s *schedule) due(k int) time.Time {
	return s.start.Add(time.Duration(float64(k) * float64(time.Second) / s.rate))
}

// release appends to dst every arrival due by now, in order, records
// each one's lateness, and returns dst.
func (s *schedule) release(now time.Time, dst []arrival) []arrival {
	for ; s.next < s.total; s.next++ {
		d := s.due(s.next)
		if d.After(now) {
			break
		}
		s.lag = append(s.lag, now.Sub(d))
		dst = append(dst, arrival{s.next, d})
	}
	return dst
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"sortnets"
)

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	traceDir string
}

func (c config) dur() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// maxReplayUnits caps the calls a traced run replays and writes out:
// enough for stable per-verdict means, few enough that hot-single's
// hundreds of thousands of calls stay a few MB of spans.
const maxReplayUnits = 5000

// setupRepeats is how many times a timed run sets the system up;
// setup_s is the median, so one slow start does not move it.
const setupRepeats = 5

// metricDef names a reported metric and its unit; BENCHMARK.json lists
// the same names (a test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verdicts_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_frac", "ratio"},
	{"cpu_us_per_verdict", "us"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"client.self_us", "us"},
	{"client.retries", "count"},
	{"serve.handler_us", "us"},
	{"serve.self_us", "us"},
	{"serve.inflight_mean", "count"},
	{"serve.shed", "count"},
	{"session.self_us", "us"},
	{"session.hit_frac", "ratio"},
	{"session.evictions", "count"},
	{"session.grouped_frac", "ratio"},
	{"session.group_size_mean", "count"},
	{"session.computes_per_verdict", "ratio"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"canon.resolve_us", "us"},
	{"eval.compile_us", "us"},
	{"eval.kernel_us", "us"},
	{"eval.vectors_per_verdict", "count"},
	{"eval.ns_per_vector.sorter", "ns"},
	{"eval.ns_per_vector.selector", "ns"},
	{"eval.ns_per_vector.merger", "ns"},
	{"core.enumerate_us", "us"},
	{"faults.measure_us", "us"},
	{"faults.matrix_us", "us"},
	{"faults.replays_per_request", "count"},
	{"search.solve_us", "us"},
	{"search.exact_frac", "ratio"},
	{"peer.probe_us", "us"},
	{"peer.hit_frac", "ratio"},
	{"cluster.computes_per_distinct", "ratio"},
	{"runtime.allocs_per_verdict", "count"},
	{"runtime.bytes_per_verdict", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.lag_p50_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints: header lines, one line per metric, and
// the JSON summary as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	defs   []metricDef
	header []string
}

func newResult(w *workload, cfg config, trace int, defs []metricDef) *result {
	shape := fmt.Sprintf("closed loop, %d connection(s)", w.conns)
	if w.rate > 0 {
		shape = fmt.Sprintf("open loop, %g units/s, at most %d connections", w.rate, w.conns)
	}
	unit := "single-shot Pool.Do"
	if w.batch > 1 {
		unit = fmt.Sprintf("NDJSON batches of %d through Pool.DoBatch, each sent %d time(s) in a row", w.batch, w.repeat)
	}
	return &result{
		Correct: true,
		Metrics: make(map[string]metric, len(defs)),
		defs:    defs,
		header: []string{
			fmt.Sprintf("costbench workload=%s seed=%d seconds=%g trace=%d", w.name, cfg.seed, cfg.seconds, trace),
			envHeader(),
			fmt.Sprintf("shape: %s, %s, %d replica(s)", shape, unit, w.replicas),
		},
	}
}

func (r *result) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("costbench: undeclared metric " + name)
}

func (r *result) note(format string, args ...any) {
	r.header = append(r.header, fmt.Sprintf(format, args...))
}

// gate folds a phase's correctness into the result.
func (r *result) gate(label string, ph *phase, chk *checker) {
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	r.note("%s: %d calls, %d verdict requests, %d failed, %.2f s", label, ph.units, ph.attempted, ph.failed, ph.wall.Seconds())
	r.note("%s: verdict checksum %016x over the first %d entries (in-process reference %016x)", label, chk.got, len(chk.sum), chk.want)
	if n := chk.bad.Load(); n > 0 {
		r.Correct = false
		r.note("%s: CORRECTNESS GATE FAILED on %d verdicts; first: %s", label, n, chk.firstFailure())
	}
}

// inputNote records the measured input properties of a phase.
func (r *result) inputNote(w *workload, in *inputSet, ph *phase) {
	distinct := w.distinct(ph.units, len(in.timed))
	capacity := 0
	for _, s := range ph.svc1 {
		capacity += s.Cache.Capacity
	}
	runs := "n/a"
	if ph.verifies > 0 {
		runs = fmt.Sprintf("%.3f", ph.runRatio/float64(ph.verifies))
	}
	r.note("inputs: holding=%.3f testsRun/minset=%s repeated=%.3f working_set/cache=%.3f (pool %d, %d distinct sent)",
		ratio(float64(ph.holding), float64(ph.attempted)), runs,
		ratio(float64(ph.attempted-int64(distinct)), float64(ph.attempted)),
		ratio(float64(distinct), float64(capacity)), len(in.timed), distinct)
}

func (r *result) print(out io.Writer) error {
	for _, h := range r.header {
		fmt.Fprintln(out, "# "+h)
	}
	for _, d := range r.defs {
		fmt.Fprintf(out, "%-32s %18.6f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tail reports a percentile, warning when fewer than ten samples lie
// beyond it.
func tail(res *result, what string, xs []time.Duration, q float64) float64 {
	v, ok := percentile(xs, q)
	if !ok {
		res.note("WARNING: %s p%g rests on %d samples, fewer than ten beyond it", what, q*100, len(xs))
		fmt.Fprintf(os.Stderr, "costbench: %s p%g has fewer than ten samples beyond it\n", what, q*100)
	}
	return ms(v)
}

// timedRun sets the system up setupRepeats times, drives the last set-up
// for the run's seconds, and reports the end-to-end metrics.
func timedRun(w *workload, cfg config) (*result, error) {
	in := w.generate(cfg.seed)
	ref := newReference(in)
	defer ref.sess.Close()
	hot, err := hotReference(ref, in)
	if err != nil {
		return nil, err
	}
	res := newResult(w, cfg, 0, endToEnd)
	setups := make([]float64, setupRepeats)
	var e *env
	for i := range setups {
		if e != nil {
			e.close()
		}
		start := time.Now()
		if e, err = setUp(w, in, nil); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	chk := newChecker(w, in, ref, hot)
	ph := e.drive(w, in, cfg.dur(), chk, nil, false)
	e.close()
	if err := chk.finish(ph.attempted); err != nil {
		return nil, err
	}
	res.inputNote(w, in, ph)
	res.gate("timed", ph, chk)
	verdicts := float64(ph.verdicts())
	res.set("setup_s", median(setups))
	res.set("verdicts_per_s", verdicts/ph.wall.Seconds())
	res.set("latency_p50_ms", tail(res, "latency", ph.lat, 0.50))
	res.set("latency_p99_ms", tail(res, "latency", ph.lat, 0.99))
	res.set("ok_frac", ratio(verdicts, float64(ph.attempted)))
	res.set("cpu_us_per_verdict", ratio(float64(ph.cpu)/float64(time.Microsecond), verdicts))
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}

// hotReference precomputes every input's reference verdict when the
// pool fits the cache, so each hot verdict is compared in full.
func hotReference(ref *reference, in *inputSet) ([]*sortnets.Verdict, error) {
	if len(in.timed) > verdictCacheCap {
		return nil, nil
	}
	out := make([]*sortnets.Verdict, len(in.timed))
	for i := range out {
		v, err := ref.verdict(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// tracedRun measures the per-layer metrics in about 1.25 times a timed
// run's seconds. Phase A drives fresh replicas untraced for half the
// seconds, for the counters and the overhead baseline; phase B drives
// fresh replicas over the same inputs for as long with spans on; then
// the traced calls are replayed in-process, as far as a quarter of the
// seconds allows.
func tracedRun(w *workload, cfg config) (*result, error) {
	in := w.generate(cfg.seed)
	ref := newReference(in)
	defer ref.sess.Close()
	hot, err := hotReference(ref, in)
	if err != nil {
		return nil, err
	}
	res := newResult(w, cfg, 1, perLayer)

	ea, err := setUp(w, in, nil)
	if err != nil {
		return nil, err
	}
	chkA := newChecker(w, in, ref, hot)
	pa := ea.drive(w, in, cfg.dur()/2, chkA, nil, true)
	ea.close()
	if err := chkA.finish(pa.attempted); err != nil {
		return nil, err
	}
	res.inputNote(w, in, pa)
	res.gate("untraced", pa, chkA)

	tr := newTracer(w.replicas)
	eb, err := setUp(w, in, tr)
	if err != nil {
		return nil, err
	}
	chkB := newChecker(w, in, ref, hot)
	tr.probing.Store(true)
	pb := eb.drive(w, in, cfg.dur()/2, chkB, tr, false)
	tr.probing.Store(false)
	eb.close()
	tr.closeIdle()
	if err := chkB.finish(pb.attempted); err != nil {
		return nil, err
	}
	res.gate("traced", pb, chkB)

	rp := newReplayer(w, tr)
	defer rp.close()
	if err := rp.warm(in); err != nil {
		return nil, err
	}
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	c, kept, err := rp.traced(in, min(rp.replayable(pb.units, len(in.timed)), maxReplayUnits), replicaOf(spans), cfg.dur()/4)
	if err != nil {
		return nil, err
	}
	res.note("replay: %d of %d traced calls (%d verdicts) replayed in-process", c.units, pb.units, c.verdicts)
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, "trace-"+w.name+".jsonl")
		if err := tr.write(path, kept); err != nil {
			return nil, err
		}
		res.note("spans: %s", path)
	}

	counterMetrics(res, w, pa)
	layerMetrics(res, wireOf(spans, kept), &c)
	lag := append(append([]time.Duration(nil), pa.lag...), pb.lag...)
	if len(lag) > 0 {
		res.set("gen.lag_p50_ms", tail(res, "generator lag", lag, 0.50))
		res.set("gen.lag_p99_ms", tail(res, "generator lag", lag, 0.99))
	} else {
		res.set("gen.lag_p50_ms", 0)
		res.set("gen.lag_p99_ms", 0)
	}
	untraced, _ := percentile(pa.lat, 0.50)
	traced, _ := percentile(pb.lat, 0.50)
	res.set("trace.overhead_frac", ratio(float64(traced-untraced), float64(untraced)))
	return res, nil
}

// counterMetrics reports phase A's deltas of Service.Stats(),
// Pool.Stats() and the Go runtime.
func counterMetrics(res *result, w *workload, ph *phase) {
	var reqs, hits, computes, evictions, entries, grouped, groups, shed, peerHits, peerAll int64
	for i := range ph.svc1 {
		a, b := ph.svc0[i], ph.svc1[i]
		for op, eb := range b.Endpoints {
			ea := a.Endpoints[op]
			reqs += eb.Requests - ea.Requests
			hits += eb.Hits - ea.Hits
			computes += eb.Computes - ea.Computes
		}
		evictions += b.Cache.Evictions - a.Cache.Evictions
		entries += b.Batch.Entries - a.Batch.Entries
		grouped += b.Batch.Grouped - a.Batch.Grouped
		groups += b.Batch.Groups - a.Batch.Groups
		shed += b.Resilience.Shed - a.Resilience.Shed
		peerHits += b.Peer.Hits - a.Peer.Hits
		peerAll += b.Peer.Hits + b.Peer.Misses + b.Peer.Errors - a.Peer.Hits - a.Peer.Misses - a.Peer.Errors
	}
	verdicts := float64(ph.verdicts())
	var inflight float64
	for _, n := range ph.inflight {
		inflight += float64(n)
	}
	res.set("client.retries", float64(ph.pool1.Retries-ph.pool0.Retries))
	res.set("serve.inflight_mean", ratio(inflight, float64(len(ph.inflight))))
	res.set("serve.shed", float64(shed))
	res.set("session.hit_frac", ratio(float64(hits), float64(reqs)))
	res.set("session.evictions", float64(evictions))
	res.set("session.grouped_frac", ratio(float64(grouped), float64(entries)))
	res.set("session.group_size_mean", ratio(float64(grouped), float64(groups)))
	res.set("session.computes_per_verdict", ratio(float64(computes), verdicts))
	res.set("search.exact_frac", ratio(float64(ph.exact), float64(ph.minsets)))
	res.set("peer.hit_frac", ratio(float64(peerHits), float64(peerAll)))
	// A pool input sent again after the caches evicted it is new work
	// again, so the base is sends of distinct batches, not pool inputs.
	res.set("cluster.computes_per_distinct", ratio(float64(computes), float64((ph.units+w.repeat-1)/w.repeat*w.batch)))
	res.set("runtime.allocs_per_verdict", ratio(float64(ph.mem1.mallocs-ph.mem0.mallocs), verdicts))
	res.set("runtime.bytes_per_verdict", ratio(float64(ph.mem1.totalAlloc-ph.mem0.totalAlloc), verdicts))
	res.set("runtime.gc_pause_ms", float64(ph.mem1.pauseNs-ph.mem0.pauseNs)/1e6)
}

// layerMetrics splits the traced round trips of the replayed calls into
// layers, in µs per verdict. Over the wire the split follows real span
// nesting: client self time is the root minus its serve.handler
// children, and peer probes nest in the handler. Inside the handler it
// follows the replays of the same calls: serve's self time is the
// handler minus probes, decode, encode and the replayed Session call;
// the Session's is that call minus its replayed stages; the stream
// enumeration estimate inside the kernel and fault passes is
// core.enumerate. The layers then sum to the traced round trip, except
// where a replayed part outran the span it stands for: a negative
// residual is reported as 0, and trace.unattributed_frac goes negative
// by that share (time counted twice).
func layerMetrics(res *result, wt wireTimes, c *costs) {
	v := float64(c.verdicts)
	us := func(d time.Duration) float64 { return ratio(float64(d)/float64(time.Microsecond), v) }
	serveSelf := max(0, wt.handler-wt.probe-c.decode-c.encode-c.session)
	sessionSelf := max(0, c.session-c.resolve-c.compile-c.kernel-c.measure-c.matrix-c.solve)
	kernel := max(0, c.kernel-c.enumKernel)
	measure := max(0, c.measure-c.enumMeasure)
	matrix := max(0, c.matrix-c.enumMatrix)
	enumerate := c.enumKernel + c.enumMeasure + c.enumMatrix
	layers := wt.clientSelf + serveSelf + wt.probe + c.decode + c.encode + sessionSelf +
		c.resolve + c.compile + kernel + enumerate + measure + matrix + c.solve

	res.set("client.self_us", us(wt.clientSelf))
	res.set("serve.handler_us", us(wt.handler))
	res.set("serve.self_us", us(serveSelf))
	res.set("session.self_us", us(sessionSelf))
	res.set("wire.decode_us", us(c.decode))
	res.set("wire.encode_us", us(c.encode))
	res.set("canon.resolve_us", us(c.resolve))
	res.set("eval.compile_us", us(c.compile))
	res.set("eval.kernel_us", us(kernel))
	res.set("core.enumerate_us", us(enumerate))
	res.set("faults.measure_us", us(measure))
	res.set("faults.matrix_us", us(matrix))
	res.set("search.solve_us", us(c.solve))
	res.set("peer.probe_us", us(wt.probe))
	var vectors int64
	for _, n := range c.famVectors {
		vectors += n
	}
	res.set("eval.vectors_per_verdict", ratio(float64(vectors), float64(c.verifies)))
	for f, name := range []string{"sorter", "selector", "merger"} {
		res.set("eval.ns_per_vector."+name, ratio(float64(c.famKernel[f]), float64(c.famVectors[f])))
	}
	res.set("faults.replays_per_request", ratio(float64(c.replays), float64(c.faultReqs)))
	res.set("trace.unattributed_frac", ratio(float64(wt.root-layers), float64(wt.root)))
}

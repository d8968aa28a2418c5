package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sortnets"
	"sortnets/internal/bitvec"
	"sortnets/internal/canon"
	"sortnets/internal/eval"
	"sortnets/internal/faults"
	"sortnets/internal/network"
	"sortnets/internal/verify"
)

// Session cache capacities of a service built with serve.Config's
// defaults, and the minset solver budget the Session gives a request.
const (
	verdictCacheCap  = 4096
	minsetNodeBudget = 2_000_000
)

// costs are the replayed times of a set of units. kernel, measure and
// matrix include drawing vectors from the test stream; the enum fields
// estimate that share as vectors drawn × the stream's standalone cost
// per vector.
type costs struct {
	units, verdicts                           int64
	session, decode, encode, resolve, compile time.Duration
	kernel, measure, matrix, solve            time.Duration
	enumKernel, enumMeasure, enumMatrix       time.Duration
	famKernel                                 [3]time.Duration // kernel minus its enumeration, per property family
	famVectors                                [3]int64
	verifies, faultReqs, replays              int64
}

type family int

const (
	famSorter family = iota
	famSelector
	famMerger
)

func familyOf(p verify.Property) family {
	switch p.(type) {
	case verify.Selector:
		return famSelector
	case verify.Merger:
		return famMerger
	}
	return famSorter
}

// replayer re-runs traced units in-process, twice: through Sessions
// configured like the replicas (session.do / session.do_batch spans),
// then stage by stage through the public functions the serve path
// calls. A model of each replica's resolve memo, program cache and
// verdict cache decides which stages a request really reaches; plain
// sets suffice because no replay reads an entry again after an LRU of
// that size could have evicted it (see replayable).
type replayer struct {
	w    *workload
	tr   *tracer
	sess []*sortnets.Session

	mu    sync.Mutex // guards model and ns
	model []cacheModel
	ns    map[string]float64
}

type cacheModel struct{ texts, progs, keys map[string]bool }

// mark records key in set and reports whether it was there already.
func (r *replayer) mark(set map[string]bool, key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	had := set[key]
	set[key] = true
	return had
}

func (r *replayer) holds(set map[string]bool, key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return set[key]
}

func (c *costs) add(o *costs) {
	c.units += o.units
	c.verdicts += o.verdicts
	c.session += o.session
	c.decode += o.decode
	c.encode += o.encode
	c.resolve += o.resolve
	c.compile += o.compile
	c.kernel += o.kernel
	c.measure += o.measure
	c.matrix += o.matrix
	c.solve += o.solve
	c.enumKernel += o.enumKernel
	c.enumMeasure += o.enumMeasure
	c.enumMatrix += o.enumMatrix
	for f := range c.famKernel {
		c.famKernel[f] += o.famKernel[f]
		c.famVectors[f] += o.famVectors[f]
	}
	c.verifies += o.verifies
	c.faultReqs += o.faultReqs
	c.replays += o.replays
}

func newReplayer(w *workload, tr *tracer) *replayer {
	r := &replayer{w: w, tr: tr, ns: make(map[string]float64)}
	for i := 0; i < w.replicas; i++ {
		opts := []sortnets.Option{sortnets.WithWorkers(0), sortnets.WithCache(verdictCacheCap)}
		if w.replicas > 1 {
			// The replicas' peer fill, in process: a sibling's cache read.
			opts = append(opts, sortnets.WithPeerFill(func(_ context.Context, req sortnets.Request) (*sortnets.Verdict, bool) {
				for j, s := range r.sess {
					if j != i {
						if v, ok := s.Lookup(req); ok {
							return v, true
						}
					}
				}
				return nil, false
			}))
		}
		r.sess = append(r.sess, sortnets.NewSession(opts...))
		r.model = append(r.model, cacheModel{map[string]bool{}, map[string]bool{}, map[string]bool{}})
	}
	return r
}

func (r *replayer) close() {
	for _, s := range r.sess {
		s.Close()
	}
}

// replayable is how many leading units of a phase the model can
// follow: all of them when the pool fits every cache, else one pass
// over the pool.
func (r *replayer) replayable(units, pool int) int {
	if pool <= verdictCacheCap {
		return units
	}
	return min(units, pool/r.w.batch*r.w.repeat)
}

// warm replays the warm-up units untimed, so the traced ones meet the
// caches and code paths the service's did.
func (r *replayer) warm(in *inputSet) error {
	var scratch costs
	for k := 0; k < r.w.warmUnits; k++ {
		reqs, _ := r.w.unit(in.warmReqs, k)
		if err := r.unit(k%r.w.replicas, reqs, 0, &scratch); err != nil {
			return err
		}
	}
	return nil
}

// traced replays units 0..units-1 of the traced phase in order until
// budget is spent, each on the replica that served it. A closed loop
// replays with as many callers as it ran with, so the stages meet the
// CPU contention its handlers met; an open loop, whose calls overlap
// only part of the time, replays one call at a time.
func (r *replayer) traced(in *inputSet, units int, served map[uint64]int, budget time.Duration) (costs, map[uint64]bool, error) {
	var c costs
	done := make(map[uint64]bool)
	callers := r.w.conns
	if r.w.rate > 0 {
		callers = 1
	}
	parts := make([]costs, callers)
	ids := make([][]uint64, callers)
	errs := make([]error, callers)
	deadline := time.Now().Add(budget)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= units {
					return
				}
				id := uint64(k) + 1
				rep, ok := served[id]
				if !ok {
					continue
				}
				reqs, _ := r.w.unit(in.reqs, k)
				if errs[i] = r.unit(rep, reqs, id, &parts[i]); errs[i] != nil {
					return
				}
				ids[i] = append(ids[i], id)
			}
		}()
	}
	wg.Wait()
	for i := range parts {
		if errs[i] != nil {
			return c, nil, errs[i]
		}
		c.add(&parts[i])
		for _, id := range ids[i] {
			done[id] = true
		}
	}
	return c, done, nil
}

// unit replays one unit on replica rep; id 0 records no spans.
func (r *replayer) unit(rep int, reqs []sortnets.Request, id uint64, c *costs) error {
	ctx := context.Background()
	name := "session.do"
	start := time.Now()
	var vs []*sortnets.Verdict
	var err error
	if r.w.batch > 1 {
		name = "session.do_batch"
		vs, err = r.sess[rep].DoBatch(ctx, reqs)
	} else {
		var v *sortnets.Verdict
		v, err = r.sess[rep].Do(ctx, reqs[0])
		vs = []*sortnets.Verdict{v}
	}
	end := time.Now()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	sid := r.span(name, id, id, start, end)
	c.session += end.Sub(start)
	c.units++
	c.verdicts += int64(len(reqs))
	return r.stages(rep, reqs, vs, id, sid, c)
}

func (r *replayer) span(name string, id, parent uint64, start, end time.Time) uint64 {
	if id == 0 {
		return 0
	}
	sid := r.tr.ids.Add(1)
	r.tr.add(span{Name: name, Trace: id, ID: sid, Parent: parent, Start: r.tr.since(start), End: r.tr.since(end)})
	return sid
}

// timed runs f as one replayed stage and returns its duration.
func (r *replayer) timed(name string, id, parent uint64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.span(name, id, parent, start, end)
	return end.Sub(start)
}

// entry is one request resolved untimed: what the stages need.
type entry struct {
	text, op, key string
	w             *network.Network // canonical
	digest        string
	p             verify.Property
	exact         bool
}

func resolveEntry(req *sortnets.Request) (*entry, error) {
	w, err := network.Parse(req.Network)
	if err != nil {
		return nil, err
	}
	e := &entry{text: req.Network, op: req.Op, p: propertyOf(req, w.N), exact: req.Exact}
	e.w, e.digest = canon.Canonicalize(w)
	if e.op == "" {
		e.op = sortnets.OpVerify
	}
	e.key = e.op + "|" + e.digest + "|" + e.p.Name() + "|" + strconv.FormatBool(e.exact)
	return e, nil
}

// stages replays what the handler and the Session do for the unit,
// one public call at a time: decode, resolve (memo misses), compile
// (program-cache misses), then per verdict-cache miss the engine the
// Session picks — a shared RunMany pass for a batch's same-width
// same-property verify misses, else the per-request verify, faults or
// minset path — and finally encode.
func (r *replayer) stages(rep int, reqs []sortnets.Request, vs []*sortnets.Verdict, id, sid uint64, c *costs) error {
	m := r.model[rep]
	batch := r.w.batch > 1
	var dst sortnets.Request
	if batch {
		lines := make([][]byte, len(reqs))
		for i := range reqs {
			lines[i] = sortnets.AppendRequest(nil, &reqs[i])
		}
		c.decode += r.timed("wire.decode", id, sid, func() {
			for _, l := range lines {
				_ = sortnets.UnmarshalRequestLine(l, &dst)
			}
		})
	} else {
		body, err := json.Marshal(reqs[0])
		if err != nil {
			return err
		}
		c.decode += r.timed("wire.decode", id, sid, func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			_ = dec.Decode(&dst)
		})
	}

	var pending []*entry
	inBatch := make(map[string]bool, len(reqs))
	for i := range reqs {
		e, err := resolveEntry(&reqs[i])
		if err != nil {
			return err
		}
		switch e.op {
		case sortnets.OpVerify:
			c.verifies++
		default:
			c.faultReqs++
		}
		if !r.mark(m.texts, e.text) {
			c.resolve += r.timed("canon.resolve", id, sid, func() {
				w, _ := network.Parse(e.text)
				canon.Canonicalize(w)
			})
		}
		if batch && inBatch[e.key] {
			continue // deduplicated within the batch
		}
		inBatch[e.key] = true
		if !r.holds(m.keys, e.key) {
			pending = append(pending, e)
		}
	}

	single := pending
	if batch {
		single = nil
		type groupKey struct {
			n    int
			prop string
		}
		groups := make(map[groupKey][]*entry)
		var order []groupKey
		for _, e := range pending {
			if e.op != sortnets.OpVerify {
				single = append(single, e)
				continue
			}
			gk := groupKey{e.w.N, e.p.Name()}
			if _, ok := groups[gk]; !ok {
				order = append(order, gk)
			}
			groups[gk] = append(groups[gk], e)
		}
		for _, gk := range order {
			if g := groups[gk]; len(g) >= 2 {
				r.group(rep, g, id, sid, c)
			} else {
				single = append(single, g...)
			}
		}
	}
	for _, e := range single {
		r.single(rep, e, id, sid, c)
	}

	if batch {
		buf := make([]byte, 0, 64<<10) // the handler's pooled scratch: allocated outside the span
		c.encode += r.timed("wire.encode", id, sid, func() {
			for _, v := range vs {
				line := sortnets.BatchVerdict{ID: v.ID, Verdict: v, Source: v.Source}
				buf = sortnets.AppendBatchVerdict(buf, &line)
				buf = append(buf, '\n')
			}
		})
	} else {
		c.encode += r.timed("wire.encode", id, sid, func() { _, _ = sortnets.MarshalVerdict(vs[0]) })
	}
	return nil
}

// adopted reports whether peer fill answers e's miss on replica rep:
// the probe resolves e on every sibling it reaches (a cache read
// warms that sibling's resolve memo) and adopts a cached verdict.
func (r *replayer) adopted(rep int, e *entry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for j := range r.model {
		if j == rep {
			continue
		}
		r.model[j].texts[e.text] = true
		if r.model[j].keys[e.key] {
			return true
		}
	}
	return false
}

// group replays one shared RunMany pass over a batch's verify misses
// of one width and property; members a sibling already holds drop out.
func (r *replayer) group(rep int, g []*entry, id, sid uint64, c *costs) {
	var rest []*entry
	for _, e := range g {
		r.mark(r.model[rep].keys, e.key)
		if !r.adopted(rep, e) {
			rest = append(rest, e)
		}
	}
	if len(rest) == 0 {
		return
	}
	progs := make([]*eval.Program, len(rest))
	for i, e := range rest {
		progs[i] = r.compile(rep, e, id, sid, c)
	}
	p := rest[0].p
	var evs []eval.Verdict
	d := r.timed("eval.kernel", id, sid, func() {
		evs, _ = eval.RunManyCtx(context.Background(), progs, p.BinaryTests(), verify.JudgeFor(p))
	})
	runs := make([]int, len(evs))
	for i, v := range evs {
		runs[i] = v.TestsRun
	}
	r.kernel(c, p, d, runs...)
}

// single replays the per-request path for one miss.
func (r *replayer) single(rep int, e *entry, id, sid uint64, c *costs) {
	r.mark(r.model[rep].keys, e.key)
	if r.adopted(rep, e) {
		return
	}
	ctx := context.Background()
	prog := r.compile(rep, e, id, sid, c)
	var calls atomic.Int64
	tests := func() bitvec.Iterator {
		calls.Add(1)
		return e.p.BinaryTests()
	}
	switch e.op {
	case sortnets.OpVerify:
		var res verify.Result
		d := r.timed("eval.kernel", id, sid, func() { res, _ = verify.VerdictProgramCtx(ctx, prog, e.p) })
		r.kernel(c, e.p, d, res.TestsRun)
	case sortnets.OpFaults:
		measure := func(tests func() bitvec.Iterator) {
			_, _ = faults.MeasureCtx(ctx, e.w, prog, faults.Enumerate(e.w), tests, faults.ByProperty)
		}
		c.measure += r.timed("faults.measure", id, sid, func() { measure(tests) })
		// The pass spreads faults over every core, but its callers keep
		// every core busy too, so its enumeration CPU time is also its
		// share of the pass's wall time.
		c.enumMeasure += time.Duration(float64(drawn(measure, e.p)) * r.nsPerVector(e.p))
		c.replays += calls.Load()
	case sortnets.OpMinset:
		var mx *faults.Matrix
		c.matrix += r.timed("faults.matrix", id, sid, func() {
			mx, _ = faults.DetectionMatrixCtx(ctx, e.w, prog, faults.Enumerate(e.w), tests, faults.ByProperty)
		})
		c.enumMatrix += time.Duration(float64(len(mx.Tests)) * r.nsPerVector(e.p))
		c.replays += calls.Load()
		c.solve += r.timed("search.solve", id, sid, func() {
			var picks []int
			if e.exact {
				picks, _, _ = mx.ExactMinimalDetectingSetCtx(ctx, minsetNodeBudget, 1)
			}
			if picks == nil {
				mx.MinimalDetectingSet()
			}
		})
	}
}

// compile replays eval.Compile on a program-cache miss.
func (r *replayer) compile(rep int, e *entry, id, sid uint64, c *costs) *eval.Program {
	if r.mark(r.model[rep].progs, e.digest) {
		return eval.Compile(e.w) // the Session reuses its copy; untimed here
	}
	var p *eval.Program
	c.compile += r.timed("eval.compile", id, sid, func() { p = eval.Compile(e.w) })
	return p
}

// kernel books one verify engine pass: its time, the vectors its
// programs judged, and the estimated share spent drawing from the
// stream — the furthest any program ran, rounded up to a 64-lane block.
func (r *replayer) kernel(c *costs, p verify.Property, d time.Duration, runs ...int) {
	furthest, vectors := 0, int64(0)
	for _, t := range runs {
		furthest = max(furthest, t)
		vectors += int64(t)
	}
	enum := time.Duration(float64(min(minimalSize(p), (furthest+63)/64*64)) * r.nsPerVector(p))
	f := familyOf(p)
	c.kernel += d
	c.enumKernel += enum
	c.famKernel[f] += d - enum
	c.famVectors[f] += vectors
}

// nsPerVector is the standalone cost of drawing one vector from p's
// minimal test stream, measured once per property and width.
func (r *replayer) nsPerVector(p verify.Property) float64 {
	key := p.Name() + "/" + strconv.Itoa(p.Lines())
	r.mu.Lock()
	ns, ok := r.ns[key]
	r.mu.Unlock()
	if ok {
		return ns
	}
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < 2*time.Millisecond {
		for it := p.BinaryTests(); ; n++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
	ns = float64(time.Since(start).Nanoseconds()) / float64(n)
	r.mu.Lock()
	r.ns[key] = ns
	r.mu.Unlock()
	return ns
}

// drawn counts the vectors a fault pass pulls from its test streams by
// running it again, untimed, over counting iterators.
func drawn(run func(tests func() bitvec.Iterator), p verify.Property) int64 {
	var n atomic.Int64
	run(func() bitvec.Iterator { return &countingIter{it: p.BinaryTests(), n: &n} })
	return n.Load()
}

type countingIter struct {
	it bitvec.Iterator
	n  *atomic.Int64
}

func (c *countingIter) Next() (bitvec.Vec, bool) {
	v, ok := c.it.Next()
	if ok {
		c.n.Add(1)
	}
	return v, ok
}

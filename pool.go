package sortnets

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"
)

// The Session's compute plane is a work-conserving worker pool: a
// fixed set of workers drains ONE shared job queue, so no worker sits
// idle while a job waits, and the worker count bounds the number of
// verdicts computing at once (the engines inside run single-worker,
// so total CPU use stays ≈ worker count). Coalescing is sharded
// instead, by the hash of the cache key, and needs no global lock:
// two concurrent identical requests always land on the same shard,
// whose inflight table lets the second subscribe to the first's
// result instead of recomputing it.
//
// Cancellation: each in-flight call computes under its OWN context,
// cancelled when the last subscribed waiter abandons it. A caller
// whose context dies stops waiting immediately; the computation keeps
// running only while someone still wants the result, and aborts at
// its next engine block check otherwise — releasing its worker.
// Caller deadlines and values are deliberately NOT propagated into
// the compute context: a verdict may be shared by callers with
// different deadlines.

// call is one in-flight computation; waiters block on done and then
// read verdict/err, which are written exactly once before the close.
type call struct {
	done    chan struct{}
	verdict *Verdict
	err     error
	waiters int // guarded by the shard mutex
	ctx     context.Context
	cancel  context.CancelFunc
}

// shard is one slice of the inflight table.
type shard struct {
	mu       sync.Mutex
	inflight map[string]*call
}

type pool struct {
	shards  []*shard
	jobs    chan func()
	wg      sync.WaitGroup
	onPanic func() // observes each recovered compute panic (may be nil)
}

// newPool starts n workers on one shared job queue and n inflight
// shards. The queue holds 64 jobs per worker; a full queue blocks the
// submitting caller, which is the intended backpressure (the
// submitter still honours its context while blocked). onPanic, if
// non-nil, runs once per recovered compute panic (the job's error
// becomes a *PanicError either way).
func newPool(n int, onPanic func()) *pool {
	if n < 1 {
		n = 1
	}
	p := &pool{shards: make([]*shard, n), jobs: make(chan func(), 64*n), onPanic: onPanic}
	for i := range p.shards {
		p.shards[i] = &shard{inflight: make(map[string]*call)}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// close drains the pool: no do calls may be in flight or follow.
func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
}

func (p *pool) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return p.shards[h.Sum32()%uint32(len(p.shards))]
}

// do runs compute for key on the next free worker, coalescing with
// an identical in-flight computation on key's shard if one exists. It
// returns the result and whether this caller merely joined an
// existing call.
// onJoin, if non-nil, runs as soon as a caller registers as a waiter
// (BEFORE blocking on the twin's result), so coalescing is observable
// in stats while the shared computation is still running.
func (p *pool) do(ctx context.Context, key string, compute func(context.Context) (*Verdict, error), onJoin func()) (*Verdict, bool, error) {
	sh := p.shardFor(key)
	sh.mu.Lock()
	if c, ok := sh.inflight[key]; ok {
		c.waiters++
		sh.mu.Unlock()
		if onJoin != nil {
			onJoin()
		}
		return sh.wait(ctx, key, c, true)
	}
	cctx, cancel := context.WithCancel(context.Background())
	c := &call{done: make(chan struct{}), waiters: 1, ctx: cctx, cancel: cancel}
	sh.inflight[key] = c
	sh.mu.Unlock()

	job := func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = &PanicError{Val: r}
				if p.onPanic != nil {
					p.onPanic()
				}
			}
			sh.drop(key, c)
			c.cancel()
			close(c.done)
		}()
		// All waiters may have abandoned the call while it sat in the
		// queue: return the slot without touching an engine.
		if err := c.ctx.Err(); err != nil {
			c.err = err
			return
		}
		c.verdict, c.err = compute(c.ctx)
	}
	select {
	case p.jobs <- job:
	case <-ctx.Done():
		// Queue full and the submitter gave up before the job was
		// accepted: finish the call with a retryable sentinel — NOT
		// the submitter's context error, which joined waiters with
		// live contexts of their own must not inherit (the Session
		// retries the pipeline for them).
		sh.drop(key, c)
		c.err = errSubmitterGone
		c.cancel()
		close(c.done)
		return nil, false, ctx.Err()
	}
	return sh.wait(ctx, key, c, false)
}

// errSubmitterGone marks a call whose submitting caller abandoned it
// before a pool worker accepted the job. Waiters that coalesced onto
// it did nothing wrong — their caller retries the request.
var errSubmitterGone = errors.New("sortnets: verdict submission abandoned before compute started")

// drop removes the call from the inflight table if it still owns its
// key (a successor may already have replaced it after an abandon).
func (sh *shard) drop(key string, c *call) {
	sh.mu.Lock()
	if sh.inflight[key] == c {
		delete(sh.inflight, key)
	}
	sh.mu.Unlock()
}

// wait blocks until the call completes or the caller's context dies.
// The last waiter to abandon a call cancels its compute context and
// retires it from the inflight table, so a later identical request
// starts fresh instead of subscribing to a doomed computation.
func (sh *shard) wait(ctx context.Context, key string, c *call, joined bool) (*Verdict, bool, error) {
	select {
	case <-c.done:
		return c.verdict, joined, c.err
	case <-ctx.Done():
		sh.mu.Lock()
		c.waiters--
		abandoned := c.waiters == 0
		if abandoned && sh.inflight[key] == c {
			delete(sh.inflight, key)
		}
		sh.mu.Unlock()
		if abandoned {
			c.cancel()
		}
		return nil, joined, ctx.Err()
	}
}

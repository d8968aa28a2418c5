package sortnets

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sortnets/internal/network"
)

// barrier is a compute hook that holds every compute until want of
// them have entered it: reached closes only if want computes were
// inside at once. release (closed by the test's cleanup) lets held
// computes go, so a pool that cannot run want computes at once fails
// the test instead of hanging it.
type barrier struct {
	want    int64
	entered atomic.Int64
	reached chan struct{}
	release chan struct{}
}

func newBarrier(want int) *barrier {
	return &barrier{want: int64(want), reached: make(chan struct{}), release: make(chan struct{})}
}

func (b *barrier) hook() {
	if b.entered.Add(1) == b.want {
		close(b.reached)
	}
	select {
	case <-b.reached:
	case <-b.release:
	}
}

// await fails the test unless want computes get inside the hook at
// once within five seconds.
func (b *barrier) await(t *testing.T, what string) {
	t.Helper()
	select {
	case <-b.reached:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: %d compute(s) entered, never %d at once", what, b.entered.Load(), b.want)
	}
}

// sameShardRequests returns two verify requests with distinct digests
// whose cache keys hash to one inflight shard of sess's pool.
func sameShardRequests(t *testing.T, sess *Session) (Request, Request) {
	t.Helper()
	p := sess.startPool()
	prop, err := propertyFor("", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	first := map[*shard]Request{}
	seen := map[string]bool{}
	for range 64 {
		req := Request{Network: network.Random(8, 10, rng).Format()}
		_, digest, err := req.resolve(sess.maxLines)
		if err != nil {
			t.Fatal(err)
		}
		if seen[digest] {
			continue
		}
		seen[digest] = true
		sh := p.shardFor(verifyKey(digest, prop.Name(), false))
		if r, ok := first[sh]; ok {
			return r, req
		}
		first[sh] = req
	}
	t.Fatal("no two requests hash to one shard")
	return Request{}, Request{}
}

// TestPoolWorkConservingOnOneShard: with two workers, two computes
// whose cache keys hash to the same inflight shard run at once. The
// shard only coalesces; it does not own a worker.
func TestPoolWorkConservingOnOneShard(t *testing.T) {
	b := newBarrier(2)
	sess := NewSession(WithWorkers(2), WithComputeHook(b.hook))
	defer sess.Close()
	first, second := sameShardRequests(t, sess)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, req := range []Request{first, second} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = sess.Do(context.Background(), req)
		}()
	}
	defer func() { close(b.release); wg.Wait() }()
	b.await(t, "two single-shot computes on one inflight shard")
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// doBatchAsync starts sess.DoBatch(ctx, reqs) on its own goroutine;
// wait returns its result.
func doBatchAsync(ctx context.Context, sess *Session, reqs []Request) (wait func() ([]*Verdict, error)) {
	var vs []*Verdict
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		vs, err = sess.DoBatch(ctx, reqs)
	}()
	return func() ([]*Verdict, error) {
		<-done
		return vs, err
	}
}

// fanOutBatch is two verify groups (two 6-line and two 8-line sorter
// candidates) and two single entries (faults and minset).
func fanOutBatch() []Request {
	rng := rand.New(rand.NewSource(41))
	var reqs []Request
	for _, n := range []int{6, 6, 8, 8} {
		reqs = append(reqs, Request{Network: network.Random(n, 3*n, rng).Format()})
	}
	return append(reqs,
		Request{Op: OpFaults, Network: network.Random(6, 12, rng).Format()},
		Request{Op: OpMinset, Network: network.Random(6, 12, rng).Format()})
}

// TestDoBatchFansOutOverPool: a batch's group passes and single
// entries compute side by side — at least two at once on a two-worker
// pool — and every verdict still equals a sequential Do's.
func TestDoBatchFansOutOverPool(t *testing.T) {
	b := newBarrier(2)
	sess := NewSession(WithWorkers(2), WithComputeHook(b.hook))
	defer sess.Close()
	reqs := fanOutBatch()
	wait := doBatchAsync(context.Background(), sess, reqs)
	defer func() { close(b.release); wait() }()
	b.await(t, "a batch of two groups and two singles")
	vs, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if bs := sess.Stats().Batch; bs.Groups != 2 || bs.Grouped != 4 {
		t.Fatalf("batch stats %+v, want 2 groups of 4 entries", bs)
	}
	ref := NewSession(WithWorkers(1))
	defer ref.Close()
	for i, req := range reqs {
		want, err := ref.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := MarshalVerdict(vs[i])
		wantBody, _ := MarshalVerdict(want)
		if !bytes.Equal(got, wantBody) {
			t.Fatalf("entry %d: DoBatch %s, sequential Do %s", i, got, wantBody)
		}
	}
}

// TestDoBatchCancelWaitsForEveryUnit: cancelling a fanned-out batch
// mid-compute returns (nil, context.Canceled) once every unit has
// returned, leaves no goroutine behind beyond the pool's workers, and
// leaves the session usable.
func TestDoBatchCancelWaitsForEveryUnit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := newBarrier(2)
	sess := NewSession(WithWorkers(2), WithComputeHook(func() { b.hook(); cancel() }))
	defer sess.Close()
	sess.startPool()
	before := runtime.NumGoroutine()
	reqs := fanOutBatch()
	wait := doBatchAsync(ctx, sess, reqs)
	defer func() { close(b.release); wait() }()
	b.await(t, "a cancelled batch of two groups and two singles")
	if vs, err := wait(); !errors.Is(err, context.Canceled) || vs != nil {
		t.Fatalf("want (nil, context.Canceled), got (%v, %v)", vs, err)
	}
	waitGoroutines(t, int64(before))
	vs, err := sess.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if v == nil {
			t.Fatalf("entry %d after cancellation: nil verdict", i)
		}
	}
}

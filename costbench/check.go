package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sortnets"
)

// checksumEntries is how many leading entries of a phase, at most,
// feed the verdict checksum.
const checksumEntries = 256

// Every sampleEvery-th entry, up to maxSamples, is byte-compared
// against the reference after the phase.
const (
	sampleEvery = 97
	maxSamples  = 200
)

// reference renders verdicts in-process on a fresh Session configured
// like the service: the oracle wire verdicts are byte-compared with.
type reference struct {
	sess *sortnets.Session
	in   *inputSet
	memo map[int]*sortnets.Verdict
}

func newReference(in *inputSet) *reference {
	return &reference{sess: sortnets.NewSession(), in: in, memo: make(map[int]*sortnets.Verdict)}
}

func (r *reference) verdict(idx int) (*sortnets.Verdict, error) {
	if v, ok := r.memo[idx]; ok {
		return v, nil
	}
	v, err := r.sess.Do(context.Background(), r.in.timed[idx].req)
	if err != nil {
		return nil, fmt.Errorf("reference verdict for input %d: %w", idx, err)
	}
	v.Source = ""
	r.memo[idx] = v
	return v, nil
}

// checker is the correctness gate of one phase. Every verdict is
// checked as it arrives against what its input's construction forces
// (and, when the pool is small enough to precompute, against the
// reference verdict); afterwards a sample is byte-compared with the
// reference, and the first checksumEntries entries must sum to the
// reference's checksum, which is a function of the seed alone.
type checker struct {
	w       *workload
	in      *inputSet
	ref     *reference
	hot     []*sortnets.Verdict // per input, when precomputed
	sum     []*sortnets.Verdict // entry seq → its verdict, seq < checksumEntries
	mu      sync.Mutex
	samples []sample
	bad     atomic.Int64
	first   atomic.Pointer[string]

	got, want uint64 // checksums, set by finish
}

type sample struct {
	idx int
	v   *sortnets.Verdict
}

func newChecker(w *workload, in *inputSet, ref *reference, hot []*sortnets.Verdict) *checker {
	return &checker{w: w, in: in, ref: ref, hot: hot, sum: make([]*sortnets.Verdict, checksumEntries)}
}

func (c *checker) fail(msg string) {
	c.bad.Add(1)
	c.first.CompareAndSwap(nil, &msg)
}

// verdict checks entry seq's verdict for pool input idx and books the
// input properties the header reports.
func (c *checker) verdict(s *sender, seq, idx int, v *sortnets.Verdict) {
	in := &c.in.timed[idx]
	if !in.check(v) || c.hot != nil && !sameVerdict(v, c.hot[idx]) {
		c.fail(fmt.Sprintf("input %d (%s): verdict contradicts its construction", idx, in.req.Network))
	}
	if seq < len(c.sum) {
		c.sum[seq] = v
	}
	if seq%sampleEvery == 0 {
		c.mu.Lock()
		if len(c.samples) < maxSamples {
			c.samples = append(c.samples, sample{idx, v})
		}
		c.mu.Unlock()
	}
	if in.holds {
		s.holding++
	}
	if v == nil {
		return
	}
	if v.Check != nil {
		s.verifies++
		s.runRatio += float64(v.Check.TestsRun) / float64(minimalSize(in.property()))
	}
	if v.Minset != nil {
		s.minsets++
		if v.Minset.Exact {
			s.exact++
		}
	}
}

// finish byte-compares the sample and computes both checksums over
// the leading entries of a phase that sent the given number.
func (c *checker) finish(sent int64) error {
	for _, s := range c.samples {
		want, err := c.ref.verdict(s.idx)
		if err != nil {
			return err
		}
		if !bytes.Equal(sortnets.AppendVerdict(nil, s.v), sortnets.AppendVerdict(nil, want)) {
			c.fail(fmt.Sprintf("input %d: wire verdict differs from the in-process Session's", s.idx))
		}
	}
	c.sum = c.sum[:min(int64(len(c.sum)), sent)]
	var got, want []*sortnets.Verdict
	for seq, v := range c.sum {
		if v == nil {
			c.fail(fmt.Sprintf("checksum entry %d was not answered", seq))
			continue
		}
		_, first := c.w.unit(c.in.reqs, seq/c.w.batch)
		ref, err := c.ref.verdict(first + seq%c.w.batch)
		if err != nil {
			return err
		}
		got, want = append(got, v), append(want, ref)
	}
	if c.got, c.want = checksum(got), checksum(want); c.got != c.want {
		c.fail(fmt.Sprintf("verdict checksum %016x differs from the in-process %016x", c.got, c.want))
	}
	return nil
}

func (c *checker) firstFailure() string {
	if p := c.first.Load(); p != nil {
		return *p
	}
	return ""
}

// sameVerdict compares two verify verdicts field by field, the inline
// form of comparing their wire bytes (precomputed references exist only
// for the hot verify pool).
func sameVerdict(a, b *sortnets.Verdict) bool {
	return a != nil && b != nil && a.Op == b.Op && a.Digest == b.Digest && a.Property == b.Property &&
		a.Check != nil && b.Check != nil && *a.Check == *b.Check
}

// runtimeMem is the part of runtime.MemStats the benchmark reports.
type runtimeMem struct{ mallocs, totalAlloc, pauseNs uint64 }

func readMem() runtimeMem {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeMem{m.Mallocs, m.TotalAlloc, m.PauseTotalNs}
}

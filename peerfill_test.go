package sortnets

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// fakePeer is a scripted cluster fill hook. held networks are answered
// with the verdict a real peer Session renders; wrongOp networks with
// that network's faults verdict; wrongDigest networks with another
// network's verdict; anything else misses. It records every call.
type fakePeer struct {
	peer        *Session
	held        map[string]bool
	wrongOp     map[string]bool
	wrongDigest map[string]string

	mu    sync.Mutex
	calls [][]Request
}

func (f *fakePeer) answer(ctx context.Context, req Request) *Verdict {
	ask := Request{Op: req.Op, Network: req.Network}
	switch {
	case f.held[req.Network]:
	case f.wrongOp[req.Network]:
		ask.Op = OpFaults
	case f.wrongDigest[req.Network] != "":
		ask.Network = f.wrongDigest[req.Network]
	default:
		return nil
	}
	v, err := f.peer.Do(ctx, ask)
	if err != nil {
		panic(err)
	}
	return v
}

func (f *fakePeer) batch(ctx context.Context, reqs []Request) []*Verdict {
	f.mu.Lock()
	f.calls = append(f.calls, append([]Request(nil), reqs...))
	f.mu.Unlock()
	out := make([]*Verdict, len(reqs))
	for i, req := range reqs {
		out[i] = f.answer(ctx, req)
	}
	return out
}

func (f *fakePeer) single(ctx context.Context, req Request) (*Verdict, bool) {
	f.mu.Lock()
	f.calls = append(f.calls, []Request{req})
	f.mu.Unlock()
	v := f.answer(ctx, req)
	return v, v != nil
}

func (f *fakePeer) takeCalls() [][]Request {
	f.mu.Lock()
	defer f.mu.Unlock()
	calls := f.calls
	f.calls = nil
	return calls
}

const (
	fillCached = "n=4: [1,2]"
	fillWrongO = "n=4: [1,2][3,4]"
	fillWrongD = "n=4: [1,3][2,4]"
	fillAbsent = "n=4: [2,3]"
)

func newFakePeer() *fakePeer {
	return &fakePeer{
		peer:        NewSession(),
		held:        map[string]bool{sessSorter4: true},
		wrongOp:     map[string]bool{fillWrongO: true},
		wrongDigest: map[string]string{fillWrongD: fillAbsent},
	}
}

// fillBatch mixes every entry class the fill phase must tell apart:
// two peer-held entries (a verify and a faults), an intra-batch
// duplicate, a cache hit, a malformed entry, a wrong-op answer, a
// wrong-digest answer and a peer miss.
var fillBatch = []Request{
	{ID: "a", Network: sessSorter4},
	{ID: "b", Network: "n=4: [3,4][1,2][1,3][2,4][2,3]"}, // duplicate of "a"
	{ID: "c", Network: fillWrongO},
	{Network: fillWrongD},
	{ID: "e", Op: OpFaults, Network: sessSorter4},
	{ID: "f", Network: fillCached},
	{ID: "g", Network: "n=4: [zap"},
	{Network: fillAbsent},
}

// runFillBatch warms fillCached with a single-shot Do, then runs
// fillBatch, and returns the batch's result.
func runFillBatch(t *testing.T, sess *Session) ([]*Verdict, []error) {
	t.Helper()
	ctx := context.Background()
	if _, err := sess.Do(ctx, Request{Network: fillCached}); err != nil {
		t.Fatal(err)
	}
	vs, err := sess.DoBatch(ctx, fillBatch)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("DoBatch: %v, want a *BatchError for the malformed entry", err)
	}
	return vs, be.Errs
}

// TestDoBatchPeerFillBatchHook pins the batch fill phase: ONE hook
// call per DoBatch carrying exactly the pending representatives (no
// cache hits, no intra-batch duplicates, no malformed entries), with
// IDs stripped and ops explicit; wrong-op and wrong-digest answers
// are refused and computed locally; adopted entries are misses with
// no compute; and every verdict is byte-identical to sequential Do.
func TestDoBatchPeerFillBatchHook(t *testing.T) {
	fp := newFakePeer()
	defer fp.peer.Close()
	sess := NewSession(WithPeerFillBatch(fp.batch))
	defer sess.Close()
	ref := NewSession()
	defer ref.Close()

	vs, errs := runFillBatch(t, sess)
	wantV, wantE := runFillBatch(t, ref)

	calls := fp.takeCalls()
	if len(calls) != 2 {
		t.Fatalf("hook called %d times, want 2 (the warm-up Do, then one for the whole batch)", len(calls))
	}
	want := []Request{
		{Op: OpVerify, Network: sessSorter4},
		{Op: OpVerify, Network: fillWrongO},
		{Op: OpVerify, Network: fillWrongD},
		{Op: OpFaults, Network: sessSorter4},
		{Op: OpVerify, Network: fillAbsent},
	}
	if !reflect.DeepEqual(calls[1], want) {
		t.Fatalf("batch probe carried\n%+v\nwant the pending representatives, ID-less with ops set\n%+v", calls[1], want)
	}

	for i := range fillBatch {
		if (errs[i] == nil) != (wantE[i] == nil) {
			t.Fatalf("entry %d: error %v, sequential-equivalent %v", i, errs[i], wantE[i])
		}
		if errs[i] != nil {
			sameRequestFailure(t, fillBatch[i].Network, wantE[i], errs[i])
			continue
		}
		got, _ := MarshalVerdict(vs[i])
		exp, _ := MarshalVerdict(wantV[i])
		if string(got) != string(exp) {
			t.Fatalf("entry %d: verdict diverged from the fill-free session:\n got: %s\nwant: %s", i, got, exp)
		}
		if vs[i].Source != wantV[i].Source {
			t.Errorf("entry %d: source %q, want %q", i, vs[i].Source, wantV[i].Source)
		}
	}
	// Byte-identical to sequential Do on a fresh session, too.
	seq := NewSession()
	defer seq.Close()
	for i, req := range fillBatch {
		v, err := seq.Do(context.Background(), req)
		if err != nil {
			continue
		}
		got, _ := MarshalVerdict(vs[i])
		exp, _ := MarshalVerdict(v)
		if string(got) != string(exp) {
			t.Fatalf("entry %d: batch verdict %s, sequential Do %s", i, got, exp)
		}
	}

	// Adopted entries (a, e) are misses that cost no compute, and "a"
	// drops out of the grouped pass; every other counter matches the
	// fill-free session.
	st, rst := sess.Stats(), ref.Stats()
	wantComputes := map[string]int64{OpVerify: rst.Ops[OpVerify].Computes - 1, OpFaults: rst.Ops[OpFaults].Computes - 1}
	for op, c := range st.Ops {
		r := rst.Ops[op]
		if want, ok := wantComputes[op]; ok {
			r.Computes = want
		}
		if c != r {
			t.Errorf("op %s counters %+v, want %+v", op, c, r)
		}
	}
	wantBatch := rst.Batch
	wantBatch.Grouped--
	if st.Batch != wantBatch {
		t.Errorf("batch counters %+v, want %+v", st.Batch, wantBatch)
	}

	// The adopted verdicts are cached: a second batch is all hits and
	// the hook is not consulted for them again.
	if _, err := sess.DoBatch(context.Background(), fillBatch[:2]); err != nil {
		t.Fatal(err)
	}
	if calls := fp.takeCalls(); len(calls) != 0 {
		t.Errorf("hook consulted %d times for cached verdicts", len(calls))
	}
}

// TestPeerFillSingleShotDo: a single-shot Do miss offers exactly its
// one request to the batch hook and adopts the answer without a
// compute.
func TestPeerFillSingleShotDo(t *testing.T) {
	fp := newFakePeer()
	defer fp.peer.Close()
	sess := NewSession(WithPeerFillBatch(fp.batch))
	defer sess.Close()

	v, err := sess.Do(context.Background(), Request{ID: "x", Network: sessSorter4})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "x" || v.Source != "miss" || !v.Check.Holds {
		t.Fatalf("adopted verdict %+v", v)
	}
	calls := fp.takeCalls()
	if len(calls) != 1 || !reflect.DeepEqual(calls[0], []Request{{Op: OpVerify, Network: sessSorter4}}) {
		t.Fatalf("hook calls %+v, want one ID-less verify probe", calls)
	}
	if c := sess.Stats().Ops[OpVerify]; c.Misses != 1 || c.Computes != 0 {
		t.Errorf("verify counters %+v, want 1 miss and 0 computes", c)
	}
}

// TestPeerFillSingleRequestAdapter: WithPeerFill, the one-request
// hook form, rides the batch path and yields the same verdicts and
// counters as the batch hook, asking about each pending entry once.
func TestPeerFillSingleRequestAdapter(t *testing.T) {
	fpB, fpS := newFakePeer(), newFakePeer()
	defer fpB.peer.Close()
	defer fpS.peer.Close()
	batch := NewSession(WithPeerFillBatch(fpB.batch))
	defer batch.Close()
	single := NewSession(WithPeerFill(fpS.single))
	defer single.Close()

	bv, be := runFillBatch(t, batch)
	sv, se := runFillBatch(t, single)
	for i := range fillBatch {
		if !reflect.DeepEqual(be[i], se[i]) {
			t.Fatalf("entry %d: errors %v vs %v", i, be[i], se[i])
		}
		if be[i] != nil {
			continue
		}
		b, _ := MarshalVerdict(bv[i])
		s, _ := MarshalVerdict(sv[i])
		if string(b) != string(s) || bv[i].Source != sv[i].Source {
			t.Fatalf("entry %d: batch hook %s (%s), single hook %s (%s)", i, b, bv[i].Source, s, sv[i].Source)
		}
	}
	if bs, ss := batch.Stats(), single.Stats(); !reflect.DeepEqual(bs, ss) {
		t.Errorf("counters diverge:\n batch hook:  %+v\n single hook: %+v", bs, ss)
	}
	var flat []Request
	for _, c := range fpB.takeCalls() {
		flat = append(flat, c...)
	}
	var asked []Request
	for _, c := range fpS.takeCalls() {
		asked = append(asked, c...)
	}
	if !reflect.DeepEqual(flat, asked) {
		t.Errorf("single hook asked\n%+v\nwant the batch hook's probes one by one\n%+v", asked, flat)
	}
}

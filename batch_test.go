package sortnets

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"sortnets/internal/network"
)

// randomMixedBatch draws a batch of verify/faults/minset requests over
// random small networks, salted with duplicates (same canonical
// circuit, sometimes written with its parallel layers interleaved
// differently), tagged IDs, and malformed entries of every rejection
// class. It is shared by the local and the NDJSON round-trip
// equivalence tests.
func randomMixedBatch(rng *rand.Rand) []Request {
	var batch []Request
	size := 1 + rng.Intn(12)
	for len(batch) < size {
		switch rng.Intn(10) {
		case 0: // duplicate of an earlier entry
			if len(batch) > 0 {
				dup := batch[rng.Intn(len(batch))]
				dup.ID = "" // half the duplicates keep their own tag
				if rng.Intn(2) == 0 {
					dup.ID = randID(rng)
				}
				batch = append(batch, dup)
				continue
			}
		case 1: // malformed, one class per draw
			batch = append(batch, []Request{
				{Network: "n=4: [zap"},
				{Op: "conjure", Network: "n=2: [1,2]"},
				{},
				{Network: "n=4: [1,2]", Property: "frobnicate"},
				{Lines: 2, Comparators: [][2]int{{2, 1}}},
				{Op: OpFaults, Network: "n=4: [1,2]", Property: "selector", K: 1},
				{Network: "n=44:"},
			}[rng.Intn(7)])
			continue
		case 2, 3: // faults / minset on a small network
			n := 3 + rng.Intn(3)
			req := Request{
				Op:      []string{OpFaults, OpMinset}[rng.Intn(2)],
				Network: network.Random(n, 2+rng.Intn(3*n), rng).Format(),
				ID:      randID(rng),
			}
			if rng.Intn(3) == 0 {
				req.Mode = "by-golden"
			}
			if req.Op == OpMinset && rng.Intn(3) == 0 {
				req.Exact = true
			}
			batch = append(batch, req)
			continue
		}
		// The common case: verify, over the three properties.
		n := 2 + rng.Intn(7)
		req := Request{Network: network.Random(n, rng.Intn(4*n), rng).Format()}
		switch rng.Intn(4) {
		case 0:
			req.Property = "selector"
			req.K = 1 + rng.Intn(n)
		case 1:
			if n%2 == 0 {
				req.Property = "merger"
			}
		}
		if rng.Intn(4) == 0 {
			req.Exhaustive = true
		}
		if rng.Intn(2) == 0 {
			req.ID = randID(rng)
		}
		batch = append(batch, req)
	}
	return batch
}

func randID(rng *rand.Rand) string {
	const alpha = "abcdefgh"
	b := make([]byte, 1+rng.Intn(6))
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

// sameRequestFailure asserts two errors agree as wire failures:
// both *RequestError with equal status and message.
func sameRequestFailure(t *testing.T, label string, want, got error) {
	t.Helper()
	var wre, gre *RequestError
	if !errors.As(want, &wre) || !errors.As(got, &gre) {
		t.Fatalf("%s: error shape divergence: sequential %v, batch %v", label, want, got)
	}
	if wre.Status != gre.Status || wre.Msg != gre.Msg {
		t.Fatalf("%s: error divergence: sequential %d %q, batch %d %q", label, wre.Status, wre.Msg, gre.Status, gre.Msg)
	}
}

// TestDoBatchMatchesSequentialDo is the acceptance property: on
// randomized mixed-op batches — duplicates, tagged IDs, malformed
// entries included — every DoBatch verdict must marshal to the exact
// bytes a sequential Do of the same entry produces, and every
// per-entry failure must be the same typed *RequestError.
func TestDoBatchMatchesSequentialDo(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  []Option
		sends int
	}{
		{"cached", nil, 1},
		// No verdict cache, and every batch sent twice: on the second
		// send each text hits the resolve memo and misses the verdict
		// cache, so single, grouped, faults and minset computes resolve
		// it again, in Do and DoBatch alike.
		{"uncached", []Option{WithCache(0)}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := NewSession(tc.opts...)
			bat := NewSession(tc.opts...)
			defer seq.Close()
			defer bat.Close()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(11))

			for trial := 0; trial < 40; trial++ {
				batch := randomMixedBatch(rng)
				wantV := make([]*Verdict, len(batch))
				wantE := make([]error, len(batch))
				for i, req := range batch {
					wantV[i], wantE[i] = seq.Do(ctx, req)
				}
				for send := 0; send < tc.sends; send++ {
					gotV, err := bat.DoBatch(ctx, batch)
					var be *BatchError
					if err != nil && !errors.As(err, &be) {
						t.Fatalf("trial %d: DoBatch whole-batch error: %v", trial, err)
					}
					if len(gotV) != len(batch) {
						t.Fatalf("trial %d: %d verdicts for %d entries", trial, len(gotV), len(batch))
					}
					for i := range batch {
						label := batch[i].Op + " " + batch[i].Network
						var gotE error
						if be != nil {
							gotE = be.Errs[i]
						}
						sameOutcome(t, trial, i, label, wantV[i], wantE[i], gotV[i], gotE)
						if send > 0 {
							againV, againE := seq.Do(ctx, batch[i])
							sameOutcome(t, trial, i, label, wantV[i], wantE[i], againV, againE)
						}
					}
				}
			}
			// The equivalence must have exercised the interesting paths, not
			// vacuously passed through singleton fallback.
			st := bat.Stats().Batch
			if st.Grouped == 0 || st.Deduped == 0 {
				t.Fatalf("property test never hit the batch machinery: %+v", st)
			}
		})
	}

	// A text memoized by a verify request (cap 20) and then sent as
	// faults or minset (cap 12) is refused on its memo hit, before any
	// compute, exactly as a fresh Session refuses it.
	text := network.Random(16, 40, rand.New(rand.NewSource(12))).Format()
	capped := []Request{{Network: text}, {Op: OpFaults, Network: text}, {Op: OpMinset, Network: text}}
	sess := NewSession()
	defer sess.Close()
	ctx := context.Background()
	vs, err := sess.DoBatch(ctx, capped)
	var be *BatchError
	if !errors.As(err, &be) || vs[0] == nil {
		t.Fatalf("capped batch: %v, %v; want a verdict for its verify entry", vs, err)
	}
	for i, req := range capped[1:] {
		fresh := NewSession()
		_, want := fresh.Do(ctx, req)
		fresh.Close()
		_, got := sess.Do(ctx, req)
		sameRequestFailure(t, req.Op+" after verify (Do)", want, got)
		sameRequestFailure(t, req.Op+" after verify (DoBatch)", want, be.Errs[i+1])
	}
	if ops := sess.Stats().Ops; ops[OpFaults].Misses+ops[OpMinset].Misses != 0 {
		t.Fatalf("capped requests reached the compute pipeline: faults %+v, minset %+v", ops[OpFaults], ops[OpMinset])
	}
}

// sameOutcome asserts a verdict or failure matches the sequential Do
// reference: the same marshaled bytes, or the same *RequestError.
func sameOutcome(t *testing.T, trial, i int, label string, wantV *Verdict, wantE error, gotV *Verdict, gotE error) {
	t.Helper()
	if (wantE == nil) != (gotE == nil) {
		t.Fatalf("trial %d entry %d (%s): sequential err %v, got err %v", trial, i, label, wantE, gotE)
	}
	if wantE != nil {
		sameRequestFailure(t, label, wantE, gotE)
		if gotV != nil {
			t.Fatalf("trial %d entry %d: verdict alongside error", trial, i)
		}
		return
	}
	wb, werr := MarshalVerdict(wantV)
	gb, gerr := MarshalVerdict(gotV)
	if werr != nil || gerr != nil {
		t.Fatal(werr, gerr)
	}
	if string(wb) != string(gb) {
		t.Fatalf("trial %d entry %d (%s): verdicts differ:\nsequential: %s\ngot:        %s", trial, i, label, wb, gb)
	}
}

// TestDoBatchDedupGroupingAndIDs pins the semantics the README
// documents: intra-batch duplicates collapse to one computation
// (Source "coalesced", own ID echoed), same-width same-property
// verify entries share one grouped engine pass, and a second
// identical batch is all cache hits.
func TestDoBatchDedupGroupingAndIDs(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	ctx := context.Background()
	reqs := []Request{
		{ID: "a", Network: sessSorter4},
		{ID: "b", Network: "n=4: [3,4][1,2][1,3][2,4][2,3]"}, // same canonical circuit as "a"
		{ID: "c", Network: "n=4: [1,2][3,4]"},                // groups with "a"
		{ID: "d", Op: OpFaults, Network: sessSorter4},        // fallback path
	}
	vs, err := sess.DoBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if vs[i] == nil || vs[i].ID != want {
			t.Fatalf("entry %d: verdict %+v, want ID %q", i, vs[i], want)
		}
	}
	if vs[1].Source != "coalesced" || vs[1].Digest != vs[0].Digest {
		t.Errorf("duplicate: source %q digest %q, want coalesced copy of %q", vs[1].Source, vs[1].Digest, vs[0].Digest)
	}
	if vs[0].Source != "miss" || vs[2].Source != "miss" {
		t.Errorf("grouped entries: sources %q, %q, want miss", vs[0].Source, vs[2].Source)
	}
	if !vs[0].Check.Holds || vs[2].Check.Holds {
		t.Errorf("grouped verdicts wrong: %+v, %+v", vs[0].Check, vs[2].Check)
	}
	st := sess.Stats()
	if b := st.Batch; b.Batches != 1 || b.Entries != 4 || b.Deduped != 1 || b.Grouped != 2 || b.Groups != 1 {
		t.Errorf("batch stats %+v, want 1 batch / 4 entries / 1 deduped / 2 grouped / 1 group", b)
	}
	// An identical second batch is answered from the verdict cache.
	vs2, err := sess.DoBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs2 {
		if i != 1 && vs2[i].Source != "hit" {
			t.Errorf("second batch entry %d: source %q, want hit", i, vs2[i].Source)
		}
		b1, _ := MarshalVerdict(vs[i])
		b2, _ := MarshalVerdict(vs2[i])
		if string(b1) != string(b2) {
			t.Errorf("entry %d: cached batch verdict not byte-identical:\n%s\n%s", i, b1, b2)
		}
	}
}

// TestDoBatchCancelMidGroup aborts a batch inside the grouped
// eval.RunMany pass — the compute hook fires on the pool worker right
// before the pass and pulls the plug — and asserts the prompt typed
// error, no goroutine leaks beyond the pool, and a fully usable
// session afterwards.
func TestDoBatchCancelMidGroup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := NewSession(WithComputeHook(func() { cancel() }))
	defer sess.Close()
	rng := rand.New(rand.NewSource(3))
	var reqs []Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, Request{Network: network.Random(16, 60, rng).Format()})
	}
	before := runtime.NumGoroutine()
	vs, err := sess.DoBatch(ctx, reqs)
	if !errors.Is(err, context.Canceled) || vs != nil {
		t.Fatalf("want (nil, context.Canceled), got (%v, %v)", vs, err)
	}
	waitGoroutines(t, int64(before+sess.Workers()))
	if c := sess.Stats().Ops[OpVerify].Canceled; c != int64(len(reqs)) {
		t.Errorf("canceled counter %d, want %d", c, len(reqs))
	}
	// The same batch completes under a live context (the stale hook
	// re-cancels the already-dead context, which is harmless).
	vs, err = sess.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if v == nil || v.Check == nil {
			t.Fatalf("entry %d after cancellation: %+v", i, v)
		}
	}
}

// TestCheckManyMatchesCheck: the fleet convenience must agree with
// per-network Check exactly, across random fleets (duplicates
// included), the three properties, and warm-vs-cold caches.
func TestCheckManyMatchesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fleetSess := NewSession()
	soloSess := NewSession()
	defer fleetSess.Close()
	defer soloSess.Close()
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(7)
		var p Property = SorterProp{N: n}
		switch {
		case trial%3 == 1:
			p = SelectorProp{N: n, K: 1 + rng.Intn(n)}
		case trial%3 == 2 && n%2 == 0:
			p = MergerProp{N: n}
		}
		ws := make([]*Network, 1+rng.Intn(8))
		for i := range ws {
			if i > 0 && rng.Intn(4) == 0 {
				ws[i] = ws[rng.Intn(i)] // duplicate
				continue
			}
			ws[i] = network.Random(n, rng.Intn(4*n), rng)
		}
		got, err := fleetSess.CheckMany(ctx, ws, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, w := range ws {
			want, err := soloSess.Check(ctx, w, p)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("trial %d network %d (%s, %s):\nCheckMany %+v\nCheck     %+v",
					trial, i, w.Format(), p.Name(), got[i], want)
			}
		}
		// Warm second pass: all hits, same results.
		again, err := fleetSess.CheckMany(ctx, ws, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ws {
			if again[i] != got[i] {
				t.Fatalf("trial %d network %d: warm CheckMany diverged: %+v vs %+v", trial, i, again[i], got[i])
			}
		}
	}
}

package sortnets

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sortnets/internal/faults"
	"sortnets/internal/gen"
	"sortnets/internal/network"
	"sortnets/internal/verify"
)

const sessSorter4 = "n=4: [1,2][3,4][1,3][2,4][2,3]"

func sessCancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestDoCancelledPromptlyEveryPath is the acceptance criterion:
// Session.Do with an already-cancelled context returns promptly
// (< 50ms) on every engine path — minimal-test batch, width-12
// exhaustive GroundTruth sweep, fault sweep, and the exact
// hitting-set solve — and the session stays fully usable afterwards.
func TestDoCancelledPromptlyEveryPath(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	wide12 := BatcherSorter(12).Format()
	reqs := []Request{
		{Op: OpVerify, Network: sessSorter4},
		{Op: OpVerify, Network: wide12, Exhaustive: true}, // width-12 GroundTruth sweep
		{Op: OpFaults, Network: wide12},
		{Op: OpMinset, Network: sessSorter4, Exact: true}, // exact-search solve
	}
	for _, req := range reqs {
		before := runtime.NumGoroutine()
		start := time.Now()
		_, err := sess.Do(sessCancelled(), req)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("op %s: want context.Canceled, got %v", req.Op, err)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Errorf("op %s: cancelled Do took %v, want < 50ms", req.Op, d)
		}
		waitGoroutines(t, int64(before+sess.Workers()))
	}
	// The same requests must still compute under a live context.
	for _, req := range reqs {
		v, err := sess.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("op %s after cancellation: %v", req.Op, err)
		}
		if v.Digest == "" || v.Source == "" {
			t.Errorf("op %s: degenerate verdict %+v", req.Op, v)
		}
	}
	st := sess.Stats()
	var canceled int64
	for _, op := range st.Ops {
		canceled += op.Canceled
	}
	if canceled != int64(len(reqs)) {
		t.Errorf("canceled counter %d, want %d: %+v", canceled, len(reqs), st.Ops)
	}
}

func waitGoroutines(t *testing.T, most int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if int64(runtime.NumGoroutine()) <= most {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d, want ≤ %d", runtime.NumGoroutine(), most)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDoDeadlineMidCompute: a deadline expiring inside a heavy
// exhaustive sweep stops the engine within a block.
func TestDoDeadlineMidCompute(t *testing.T) {
	sess := NewSession(WithMaxLines(30))
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sess.Do(ctx, Request{Network: BatcherSorter(26).Format(), Exhaustive: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("deadline honored only after %v", d)
	}
}

// TestDoCacheAndSources: miss → hit, byte-identical sections, and
// canonical sharing between different writings of one circuit.
func TestDoCacheAndSources(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	ctx := context.Background()
	v1, err := sess.Do(ctx, Request{Network: sessSorter4})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Source != "miss" || v1.Check == nil || !v1.Check.Holds || v1.Check.TestsRun != 11 {
		t.Fatalf("first verdict: %+v (source %s)", v1.Check, v1.Source)
	}
	v2, err := sess.Do(ctx, Request{Network: "n=4: [3,4][1,2][1,3][2,4][2,3]"})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Source != "hit" || v2.Digest != v1.Digest {
		t.Fatalf("reordered writing not shared: source %s, digests %s vs %s", v2.Source, v2.Digest, v1.Digest)
	}
	b1, _ := MarshalVerdict(v1)
	b2, _ := MarshalVerdict(v2)
	if string(b1) != string(b2) {
		t.Fatalf("cached verdict not byte-identical:\n%s\n%s", b1, b2)
	}
}

// TestConveniencesMatchLegacyFacade: the Session conveniences agree
// exactly with direct, uncached engine calls (verify.Verdict,
// faults.Measure), on first computation and from the cache.
func TestConveniencesMatchLegacyFacade(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	ctx := context.Background()
	w := MustParseNetwork(sessSorter4)
	p := SorterProp{N: 4}

	r, err := sess.Check(ctx, w, p)
	if err != nil || !r.Holds || r.TestsRun != 11 {
		t.Fatalf("Check: %+v, %v", r, err)
	}
	g, err := sess.GroundTruth(ctx, w, p)
	if err != nil || !g.Holds || g.TestsRun != 16 {
		t.Fatalf("GroundTruth: %+v, %v", g, err)
	}
	pr, err := sess.CheckPerms(ctx, w, p)
	if err != nil || !pr.Holds {
		t.Fatalf("CheckPerms: %+v, %v", pr, err)
	}
	rep, err := sess.FaultCoverage(ctx, w)
	if err != nil || rep.Faults == 0 {
		t.Fatalf("FaultCoverage: %+v, %v", rep, err)
	}
	if direct := faults.Measure(w, faults.Enumerate(w), p.BinaryTests, faults.ByProperty); rep != direct {
		t.Errorf("FaultCoverage diverges from faults.Measure: %+v vs %+v", rep, direct)
	}
	picks, err := sess.MinSet(ctx, w)
	if err != nil || len(picks) == 0 {
		t.Fatalf("MinSet: %d picks, %v", len(picks), err)
	}
	m := BatcherMerger(256)
	wr, err := sess.Wide(ctx, m, MergerProp{N: 256}, 0)
	if err != nil || !wr.Holds {
		t.Fatalf("Wide: %+v, %v", wr, err)
	}
	// A failing check through the cache keeps its counterexample.
	bad := MustParseNetwork("n=4: [1,2][3,4]")
	for i := 0; i < 2; i++ { // second round is the cached path
		rb, err := sess.Check(ctx, bad, p)
		if err != nil || rb.Holds || rb.Counterexample.String() == "" {
			t.Fatalf("round %d: failing check %+v, %v", i, rb, err)
		}
		if direct := verify.Verdict(bad, p); rb != direct {
			t.Fatalf("round %d: cached result diverges from verify.Verdict: %+v vs %+v", i, rb, direct)
		}
	}
}

// TestConvenienceCancellation: conveniences observe the context too.
func TestConvenienceCancellation(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	w := BatcherSorter(30)
	start := time.Now()
	_, err := sess.GroundTruthParallel(sessCancelled(), w, SorterProp{N: 30}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("cancelled convenience took %v", d)
	}
	if _, err := sess.CheckPerms(sessCancelled(), BatcherSorter(10), SorterProp{N: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckPerms: want context.Canceled, got %v", err)
	}
	if _, err := sess.Wide(sessCancelled(), BatcherMerger(256), MergerProp{N: 256}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wide: want context.Canceled, got %v", err)
	}
}

// TestSessionDoerSwap: Session satisfies Doer (the client package
// asserts the same for its Client), so the two are interchangeable.
func TestSessionDoerSwap(t *testing.T) {
	var d Doer = NewSession()
	defer d.(*Session).Close()
	v, err := d.Do(context.Background(), Request{Network: sessSorter4})
	if err != nil || v.Check == nil || !v.Check.Holds {
		t.Fatalf("Doer: %+v, %v", v, err)
	}
}

// TestUnknownOpRejected: Do validates the op before any work.
func TestUnknownOpRejected(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	_, err := sess.Do(context.Background(), Request{Op: "conjure", Network: sessSorter4})
	var re *RequestError
	if !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("want *RequestError 400, got %v", err)
	}
	if u := sess.Stats().Ops["unknown"]; u.Requests != 1 || u.Errors != 1 {
		t.Errorf("unknown-op counters %+v, want requests=errors=1", u)
	}
}

// check is Session.Check under a context that never cancels.
func check(t *testing.T, sess *Session, w *Network, p Property) Result {
	t.Helper()
	r, err := sess.Check(context.Background(), w, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// wide is Session.Wide under a context that never cancels.
func wide(t *testing.T, sess *Session, w *Network, p Property, workers int) WideResult {
	t.Helper()
	r, err := sess.Wide(context.Background(), w, p, workers)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The tests below are the package's integration checks across the
// whole stack, asked of the Session.

func TestFacadeQuickstartFlow(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	if r := check(t, sess, BatcherSorter(8), SorterProp{N: 8}); !r.Holds {
		t.Fatalf("Batcher sorter rejected: %s", r)
	}
	sigma := MustVec("0110")
	r := check(t, sess, MustAlmostSorter(sigma), SorterProp{N: 4})
	if r.Holds {
		t.Fatal("almost-sorter passed")
	}
	if r.Counterexample != sigma {
		t.Fatalf("counterexample %s, want %s", r.Counterexample, sigma)
	}
}

func TestFacadeSelectorAndMerger(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	if r := check(t, sess, SelectionNetwork(8, 3), SelectorProp{N: 8, K: 3}); !r.Holds {
		t.Errorf("selection network rejected: %s", r)
	}
	if r := check(t, sess, BatcherMerger(10), MergerProp{N: 10}); !r.Holds {
		t.Errorf("merger rejected: %s", r)
	}
	if check(t, sess, NewNetwork(6), MergerProp{N: 6}).Holds {
		t.Error("empty network accepted as merger")
	}
	// A merger is not a sorter; the sorter test set must catch it.
	if check(t, sess, BatcherMerger(8), SorterProp{N: 8}).Holds {
		t.Error("merger accepted as sorter")
	}
}

// TestCheckPermsWideSelector: a permutation verdict for a (2,33)
// selector completes and judges all C(33,2) − 1 = 527 permutations of
// the family; its cost follows the family, not the 2³³ strings of the
// whole chain decomposition.
func TestCheckPermsWideSelector(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := sess.CheckPerms(ctx, gen.Selection(33, 2), SelectorProp{N: 33, K: 2})
	if err != nil || !r.Holds || r.TestsRun != 527 {
		t.Fatalf("(2,33)-selector permutation verdict: %s, %v; want holds after 527 tests", r, err)
	}
}

func TestFacadePermTests(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	w := OptimalSorter(6)
	if w == nil {
		t.Fatal("no optimal 6-sorter")
	}
	r, err := sess.CheckPerms(context.Background(), w, SorterProp{N: 6})
	if err != nil || !r.Holds {
		t.Fatalf("perm tests rejected real sorter: %s, %v", r, err)
	}
	if len(SorterProp{N: 6}.PermTests()) != 19 {
		t.Errorf("C(6,3)-1 = 19 perms expected")
	}
	if len(MergerProp{N: 8}.PermTests()) != 4 {
		t.Error("merger perm tests should be n/2")
	}
	if len(SelectorProp{N: 8, K: 2}.PermTests()) != 27 {
		t.Error("C(8,2)-1 = 27 selector perms expected")
	}
}

func TestFacadeVerdictAgreesWithGroundTruthEndToEnd(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		w := network.Random(n, rng.Intn(n*n), rng)
		p := SorterProp{N: n}
		g, err := sess.GroundTruth(ctx, w, p)
		if err != nil {
			t.Fatal(err)
		}
		if check(t, sess, w, p).Holds != g.Holds {
			t.Fatalf("session verdict mismatch for %s", w)
		}
		par, err := sess.CheckParallel(ctx, w, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if par.Holds != g.Holds {
			t.Fatalf("parallel session verdict mismatch for %s", w)
		}
	}
}

func TestFacadeFaultCoverage(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	rep, err := sess.FaultCoverage(context.Background(), OptimalSorter(5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == 0 || rep.Detected > rep.Detectable {
		t.Errorf("bad report %+v", rep)
	}
	if rep.Coverage() <= 0 {
		t.Error("zero coverage on a real sorter is impossible")
	}
}

func TestFacadeDetectionMatrix(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	ctx := context.Background()
	w := OptimalSorter(5)
	m := DetectionMatrix(w)
	rep, err := sess.FaultCoverage(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Report(); got != rep {
		t.Errorf("matrix report %+v disagrees with FaultCoverage %+v", got, rep)
	}
	picks, err := sess.MinSet(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) == 0 || len(picks) > len(m.Tests) {
		t.Fatalf("implausible minimal detecting set size %d", len(picks))
	}
	// The selection must preserve detected-fault coverage.
	remaining := m.Detected()
	for ti, tau := range m.Tests {
		for _, sel := range picks {
			if sel == tau {
				remaining.DiffWith(m.Sigs[ti])
			}
		}
	}
	if !remaining.Empty() {
		t.Errorf("selected tests miss faults %s", remaining)
	}
}

// TestFacadeCompiledEngine: every Session verdict runs the compiled
// engine, at any worker count, with the word-parallel judge of a
// built-in property or the per-lane judge of a caller-defined one.
func TestFacadeCompiledEngine(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	w := BatcherSorter(10)
	for _, workers := range []int{1, 2, 0} {
		v, err := sess.CheckParallel(context.Background(), w, SorterProp{N: 10}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Holds {
			t.Fatalf("workers=%d: compiled engine rejected a Batcher sorter", workers)
		}
		if workers == 1 && v.TestsRun != 1<<10-10-1 {
			t.Fatalf("engine ran %d tests, want the full minimal set", v.TestsRun)
		}
	}
	// A per-lane judge must agree with the word-parallel one.
	if r := check(t, sess, w, sortedProp{SorterProp{N: 10}}); !r.Holds || r.TestsRun != 1<<10-10-1 {
		t.Fatalf("per-lane judge on a Batcher sorter: %s", r)
	}
}

// sortedProp is the sorter property under a caller-defined type, so
// verify lowers it to the per-lane judge.
type sortedProp struct{ SorterProp }

func TestFacadeWideParallelChecks(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	r := wide(t, sess, BatcherMerger(128), MergerProp{N: 128}, 0)
	if !r.Holds || r.TestsRun != 4096 {
		t.Fatalf("pooled wide merger: %s", r)
	}
	if !wide(t, sess, SelectionNetwork(96, 2), SelectorProp{N: 96, K: 2}, 2).Holds {
		t.Error("pooled wide selector rejected")
	}
}

func TestFacadeWideCertification(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	r := wide(t, sess, BatcherMerger(128), MergerProp{N: 128}, 1)
	if !r.Holds || r.TestsRun != 4096 {
		t.Fatalf("wide merger: %s", r)
	}
	sel := SelectorProp{N: 96, K: 2}
	if !wide(t, sess, SelectionNetwork(96, 2), sel, 1).Holds {
		t.Error("wide selector rejected")
	}
	if wide(t, sess, SelectionNetwork(96, 1), sel, 1).Holds {
		t.Error("under-provisioned wide selector accepted")
	}
}

// TestWideMatchesCheck: Wide on one worker and Check run one test set
// in one order, so they agree on every verdict — Holds, TestsRun,
// counterexample and output, compared as strings — for the intact
// network and every single-comparator-deletion mutant of the
// (k,n)-selection networks, k = 1..4, and of the Batcher merger, at
// n = 8, 12, 16 and 64.
func TestWideMatchesCheck(t *testing.T) {
	ctx := context.Background()
	sess := NewSession()
	defer sess.Close()
	for _, n := range []int{8, 12, 16, 64} {
		type netCase struct {
			w *Network
			p Property
		}
		cases := []netCase{{BatcherMerger(n), MergerProp{N: n}}}
		for k := 1; k <= 4; k++ {
			cases = append(cases, netCase{SelectionNetwork(n, k), SelectorProp{N: n, K: k}})
		}
		for _, c := range cases {
			for drop := -1; drop < c.w.Size(); drop++ {
				w := NewNetwork(n)
				for j, cmp := range c.w.Comps {
					if j != drop {
						w.AddPair(cmp.A, cmp.B)
					}
				}
				r, err := sess.Check(ctx, w, c.p)
				if err != nil {
					t.Fatal(err)
				}
				wr, err := sess.Wide(ctx, w, c.p, 1)
				if err != nil {
					t.Fatal(err)
				}
				check := fmt.Sprintf("holds %v after %d tests, %q -> %q", r.Holds, r.TestsRun, r.Counterexample, r.Output)
				wide := fmt.Sprintf("holds %v after %d tests, %q -> %q", wr.Holds, wr.TestsRun, wr.Counterexample, wr.Output)
				if check != wide {
					t.Errorf("%s without comparator %d: Check %s, Wide %s", c.p.Name(), drop, check, wide)
				}
			}
		}
	}
}

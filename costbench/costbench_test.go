package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"sortnets"
	"sortnets/internal/bitvec"
	"sortnets/internal/verify"
)

func millis(xs ...int) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x) * time.Millisecond
	}
	return out
}

func TestPercentileTenBeyondRule(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 1000; i++ {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	// Nearest rank: p99 of 1..1000 is 990, with exactly ten samples beyond.
	if v, ok := percentile(xs, 0.99); v != 990*time.Millisecond || !ok {
		t.Fatalf("p99 of 1000 = %v, %v; want 990ms, reportable", v, ok)
	}
	if v, ok := percentile(xs[:999], 0.99); v != 990*time.Millisecond || ok {
		t.Fatalf("p99 of 999 = %v, %v; want 990ms with only nine beyond", v, ok)
	}
	if v, ok := percentile(millis(5, 1, 3, 2, 4), 0.5); v != 3*time.Millisecond || ok {
		t.Fatalf("p50 of 5 = %v, %v; want 3ms, not reportable", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported as measured")
	}
	in := millis(3, 1, 2)
	percentile(in, 0.5)
	if in[0] != 3*time.Millisecond {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(a, b int) span { return span{Start: time.Duration(a), End: time.Duration(b)} }
	cases := []struct {
		name     string
		parent   span
		children []span
		want     time.Duration
	}{
		{"leaf", sp(0, 100), nil, 100},
		{"one nested child", sp(0, 100), []span{sp(10, 40)}, 70},
		{"disjoint siblings", sp(0, 100), []span{sp(60, 70), sp(10, 20)}, 80},
		{"overlapping siblings count once", sp(0, 100), []span{sp(10, 50), sp(30, 60)}, 50},
		{"nested siblings count once", sp(0, 100), []span{sp(10, 90), sp(20, 30)}, 20},
		{"touching siblings", sp(0, 100), []span{sp(10, 20), sp(20, 30)}, 80},
		{"child clipped to parent", sp(0, 100), []span{sp(-20, 10), sp(95, 130)}, 85},
		{"child outside parent", sp(0, 100), []span{sp(200, 300)}, 100},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestWireOfSplitsRootHandlerAndProbes(t *testing.T) {
	spans := []span{
		{Name: "client.do_batch", Trace: 1, ID: 1, Start: 0, End: 100},
		{Name: "serve.handler", Trace: 1, ID: 10, Parent: 1, Start: 20, End: 90},
		{Name: "peer.probe", Trace: 1, ID: 11, Parent: 10, Start: 30, End: 40},
		{Name: "client.do_batch", Trace: 2, ID: 2, Start: 200, End: 260},
		{Name: "serve.handler", Trace: 2, ID: 12, Parent: 2, Start: 210, End: 250},
		{Name: "session.do_batch", Trace: 2, ID: 13, Parent: 2, Start: 500, End: 530},
	}
	w := wireOf(spans, map[uint64]bool{1: true})
	if w != (wireTimes{root: 100, handler: 70, clientSelf: 30, probe: 10}) {
		t.Fatalf("trace 1: %+v", w)
	}
	w = wireOf(spans, map[uint64]bool{1: true, 2: true})
	if w.root != 160 || w.handler != 110 || w.clientSelf != 50 {
		t.Fatalf("traces 1+2: %+v", w)
	}
	if got := replicaOf([]span{{Name: "serve.handler", Trace: 7, Replica: 1}}); got[7] != 1 {
		t.Fatalf("replicaOf = %v", got)
	}
}

func TestScheduleReleasesEveryDueArrivalAndRecordsLag(t *testing.T) {
	start := time.Unix(0, 0)
	s := &schedule{start: start, rate: 1000, total: 5} // one arrival per ms
	// A wake-up 2.5 ms late releases the three arrivals due by then.
	got := s.release(start.Add(2500*time.Microsecond), nil)
	if len(got) != 3 || got[0].k != 0 || got[2].k != 2 || !got[1].due.Equal(start.Add(time.Millisecond)) {
		t.Fatalf("first wake-up released %+v", got)
	}
	want := []time.Duration{2500 * time.Microsecond, 1500 * time.Microsecond, 500 * time.Microsecond}
	for i, l := range want {
		if s.lag[i] != l {
			t.Fatalf("lag %d = %v, want %v", i, s.lag[i], l)
		}
	}
	// An early wake-up releases nothing and records nothing.
	if got := s.release(start.Add(2900*time.Microsecond), nil); len(got) != 0 || len(s.lag) != 3 {
		t.Fatalf("early wake-up released %+v", got)
	}
	// A wake-up exactly on time has zero lag; the plan ends at total.
	got = s.release(start.Add(10*time.Millisecond), nil)
	if len(got) != 2 || s.lag[3] != 7*time.Millisecond || s.next != 5 {
		t.Fatalf("last wake-up released %+v, lag %v", got, s.lag)
	}
	if got := s.release(start.Add(time.Hour), nil); len(got) != 0 {
		t.Fatal("released past the plan's total")
	}
}

func TestChecksumIgnoresOrder(t *testing.T) {
	vs := []*sortnets.Verdict{
		{Op: "verify", Digest: "a", Property: "sorter", Check: &sortnets.CheckVerdict{Holds: true, TestsRun: 11}},
		{Op: "verify", Digest: "b", Property: "sorter", Check: &sortnets.CheckVerdict{TestsRun: 3, Counterexample: "1010", Output: "0110"}},
		{Op: "faults", Digest: "c", Property: "sorter", Faults: &sortnets.FaultsVerdict{Mode: "by-property", Faults: 29, Detectable: 18, Detected: 18, Coverage: 1}},
	}
	sum := checksum(vs)
	if got := checksum([]*sortnets.Verdict{vs[2], vs[0], vs[1]}); got != sum {
		t.Fatalf("permuted checksum %x, want %x", got, sum)
	}
	if checksum(vs[:2]) == sum {
		t.Fatal("checksum ignores a verdict")
	}
	changed := *vs[1]
	changed.Check = &sortnets.CheckVerdict{TestsRun: 4, Counterexample: "1010", Output: "0110"}
	if checksum([]*sortnets.Verdict{vs[0], &changed, vs[2]}) == sum {
		t.Fatal("checksum ignores a changed field")
	}
}

func TestMinimalSizeMatchesTheStreams(t *testing.T) {
	for _, p := range []verify.Property{
		verify.Sorter{N: 6}, verify.Sorter{N: 12},
		verify.Selector{N: 9, K: 4}, verify.Selector{N: 16, K: 4},
		verify.Merger{N: 8}, verify.Merger{N: 14},
	} {
		if got, want := minimalSize(p), bitvec.Count(p.BinaryTests()); got != want {
			t.Errorf("%s on %d lines: minimalSize %d, stream has %d", p.Name(), p.Lines(), got, want)
		}
	}
}

// TestGeneratedInputsCarryTheirTruth checks the deep mix's known truth
// against an in-process Session, and that no two inputs share a digest.
func TestGeneratedInputsCarryTheirTruth(t *testing.T) {
	g := newGenerator(7)
	sess := sortnets.NewSession()
	defer sess.Close()
	seen := map[string]bool{}
	kinds := map[kind]int{}
	for i := 0; i < 60; i++ {
		in := g.deep(i)
		if seen[in.digest] {
			t.Fatalf("input %d repeats digest %s", i, in.digest)
		}
		seen[in.digest] = true
		kinds[in.kind]++
		v, err := sess.Do(context.Background(), in.req)
		if err != nil {
			t.Fatal(err)
		}
		if !in.check(v) {
			t.Fatalf("input %d (kind %d): verdict %+v contradicts its construction", i, in.kind, v.Check)
		}
		if in.kind == kindAlmost {
			wrong := in
			wrong.sigma = strings.Repeat("1", in.n-1) + "0"
			if wrong.sigma != in.sigma && wrong.check(v) {
				t.Fatalf("input %d: check accepted H_σ's verdict for another σ", i)
			}
		}
	}
	for _, k := range []kind{kindSorter, kindAlmost} {
		if kinds[k] == 0 {
			t.Errorf("no inputs of kind %d in 60 draws", k)
		}
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json and the
// metrics a run prints in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
}

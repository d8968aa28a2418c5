package sortnets

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sortnets/internal/network"
	"sortnets/internal/streamtab"
	"sortnets/internal/verify"
)

// genTables writes tables for the properties this test suite touches
// and returns an open Dir over them.
func genTables(t *testing.T) *streamtab.Dir {
	t.Helper()
	dir := t.TempDir()
	for _, spec := range []struct {
		h  streamtab.Header
		it VecIterator
	}{
		{streamtab.Header{Property: "sorter", N: 8}, verify.Sorter{N: 8}.BinaryTests()},
		{streamtab.Header{Property: "sorter", N: 6}, verify.Sorter{N: 6}.BinaryTests()},
		{streamtab.Header{Property: "selector", N: 8, K: 3}, verify.Selector{N: 8, K: 3}.BinaryTests()},
		{streamtab.Header{Property: "merger", N: 8}, verify.Merger{N: 8}.BinaryTests()},
	} {
		if _, err := streamtab.Write(dir, spec.h, spec.it); err != nil {
			t.Fatalf("write table %+v: %v", spec.h, err)
		}
	}
	d := streamtab.OpenDir(dir)
	t.Cleanup(func() { d.Close() })
	return d
}

// TestStreamTablesVerdictsIdentical runs the same request mix through
// a plain Session and a table-backed Session: every verdict must be
// deeply identical (tables carry exactly the live stream in exactly
// stream order), including for properties with NO table on disk
// (transparent fallback) and for the fault paths that replay the
// stream per fault.
func TestStreamTablesVerdictsIdentical(t *testing.T) {
	tables := genTables(t)
	plain := NewSession()
	defer plain.Close()
	tabbed := NewSession(WithStreamTables(tables))
	defer tabbed.Close()

	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()

	var reqs []Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, Request{Network: network.Random(8, 14+i%8, rng).Format()})
	}
	reqs = append(reqs,
		Request{Network: network.Random(8, 16, rng).Format(), Property: "selector", K: 3},
		Request{Network: network.Random(8, 16, rng).Format(), Property: "merger"},
		// n=10 has no table: must fall back to live enumeration.
		Request{Network: network.Random(10, 20, rng).Format()},
		// Known-good sorter so at least one verdict holds.
		Request{Network: "n=4: [1,2][3,4][1,3][2,4][2,3]"},
		Request{Op: OpFaults, Network: network.Random(6, 10, rng).Format()},
		Request{Op: OpMinset, Network: network.Random(6, 10, rng).Format()},
		Request{Op: OpFaults, Network: network.Random(8, 12, rng).Format(), Property: "selector", K: 3, Mode: "by-golden"},
	)

	for i, req := range reqs {
		want, werr := plain.Do(ctx, req)
		got, gerr := tabbed.Do(ctx, req)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("request %d: errors diverge: plain %v, tabbed %v", i, werr, gerr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("request %d: verdicts diverge\nplain:  %+v\ntabbed: %+v", i, want, got)
		}
	}
}

// TestStreamTablesBatchIdentical drives the grouped batch engine pass
// through tables and compares against the plain grouped pass.
func TestStreamTablesBatchIdentical(t *testing.T) {
	tables := genTables(t)
	plain := NewSession()
	defer plain.Close()
	tabbed := NewSession(WithStreamTables(tables))
	defer tabbed.Close()

	rng := rand.New(rand.NewSource(11))
	reqs := make([]Request, 96)
	for i := range reqs {
		reqs[i] = Request{Network: network.Random(8, 12+i%10, rng).Format()}
	}
	want, werr := plain.DoBatch(context.Background(), reqs)
	got, gerr := tabbed.DoBatch(context.Background(), reqs)
	if werr != nil || gerr != nil {
		t.Fatalf("batch errors: plain %v, tabbed %v", werr, gerr)
	}
	if len(want) != len(got) {
		t.Fatalf("batch sizes diverge: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("batch entry %d diverges\nplain:  %+v\ntabbed: %+v", i, want[i], got[i])
		}
	}
}

// TestStreamTablesSorterNotRead: the Session never replays a sorter
// table — the live sorter test set loads wholesale, faster — so even a
// sorter table holding the wrong stream leaves verdicts as a plain
// Session's.
func TestStreamTablesSorterNotRead(t *testing.T) {
	dir := t.TempDir()
	if _, err := streamtab.Write(dir, streamtab.Header{Property: "sorter", N: 4}, SliceIterator([]Vec{MustVec("1010")})); err != nil {
		t.Fatal(err)
	}
	tables := streamtab.OpenDir(dir)
	defer tables.Close()
	plain := NewSession()
	defer plain.Close()
	tabbed := NewSession(WithStreamTables(tables))
	defer tabbed.Close()
	for _, req := range []Request{{Network: sessSorter4}, {Network: "n=4: [1,2][3,4]"}, {Op: OpFaults, Network: sessSorter4}} {
		want, err := plain.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tabbed.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: the sorter table was read\nplain:  %+v\ntabbed: %+v", req.Network, want, got)
		}
	}
}

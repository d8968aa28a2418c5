package search

import (
	"context"
	"testing"
)

// Allocations of one exact search (go1.24), measured plus a slack of
// 10: the E11 shape, MinimumTestSet(5, 2, …), makes 105 and the E14
// shape, MinimumPermTestSet(4, 3, …), 84. The closure, the failure
// family and the default solve all run on the caller's goroutine, so
// neither count depends on the core count, and neither grows per
// behaviour or per permutation: the closure adds only the doublings of
// the arena, the intern table and the family, and the n! inputs are
// one table.
const (
	searchE11Allocs = 115
	searchE14Allocs = 94
)

// TestSearchAllocs guards the search pipeline's allocation count.
func TestSearchAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		bound int
		run   func() error
	}{
		{"E11 MinimumTestSet(5, 2)", searchE11Allocs, func() error {
			_, err := MinimumTestSet(5, 2, SorterAccepts, 0)
			return err
		}},
		{"E14 MinimumPermTestSet(4, 3)", searchE14Allocs, func() error {
			_, err := MinimumPermTestSet(4, 3, PermSorterAccepts, 0, 0)
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations (bound %d)", c.name, allocs, c.bound)
		if allocs > float64(c.bound) {
			t.Errorf("%s allocates %.0f times, bound %d: the search pipeline has regressed", c.name, allocs, c.bound)
		}
	}
}

// TestClosureLimitMemory: a closure that trips its limit holds at
// most one arena chunk past the limit's entries. 6,913 entries of the
// 9,468-behaviour n = 5, height-2 closure lie just past a growth step
// of an append slice of its 32-byte tables, which would have grown to
// 8,704 entries, 1,791 past the limit.
func TestClosureLimitMemory(t *testing.T) {
	const limit = 6913
	st, err := binaryClosureStore(context.Background(), 5, Comparators(5, 2), limit)
	if err == nil || st.count != limit {
		t.Fatalf("the closure of %d entries did not trip its limit %d: %v", st.count, limit, err)
	}
	held := 0
	for _, c := range st.chunks {
		held += cap(c)
	}
	bound := (limit + closureChunk) * st.stride
	t.Logf("%d entries of %d bytes: %d bytes held (bound %d)", st.count, st.stride, held, bound)
	if held > bound {
		t.Fatalf("the closure holds %d bytes for %d entries of %d bytes, more than one %d-entry chunk past them", held, st.count, st.stride, closureChunk)
	}
}

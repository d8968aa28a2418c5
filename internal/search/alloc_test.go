package search

import "testing"

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

package bitset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddRemoveContains(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 63, 64, 127, 128, 199} {
		if s.Contains(i) {
			t.Errorf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("added %d missing", i)
		}
	}
	if s.Count() != 6 {
		t.Errorf("count %d, want 6", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 5 {
		t.Error("remove failed")
	}
	s.Remove(64) // idempotent
	if s.Count() != 5 {
		t.Error("double remove changed count")
	}
}

// TestNewSlab: the sets of a slab are independent sets of the given
// capacity, laid out in order over the returned words, and building
// them costs the same three allocations for any k.
func TestNewSlab(t *testing.T) {
	for _, n := range []int{0, 5, 64, 65, 200} {
		sets, slab := NewSlab(5, n)
		w := (n + 63) / 64
		if len(sets) != 5 || len(slab) != 5*w {
			t.Fatalf("n=%d: %d sets over %d words, want 5 over %d", n, len(sets), len(slab), 5*w)
		}
		for i, s := range sets {
			if s.Len() != n || !s.Empty() {
				t.Fatalf("n=%d: set %d has capacity %d, empty %v", n, i, s.Len(), s.Empty())
			}
			if n > 0 {
				s.Add(n - 1 - i)
			}
		}
		for i, s := range sets {
			if n > 0 && (s.Count() != 1 || !s.Contains(n-1-i)) {
				t.Fatalf("n=%d: set %d is %s, want {%d}", n, i, s, n-1-i)
			}
			if words := slab[i*w : (i+1)*w]; !slices.Equal(words, s.Words()) {
				t.Fatalf("n=%d: set %d words %v, slab %v", n, i, s.Words(), words)
			}
		}
	}
	for _, k := range []int{1, 10, 1000} {
		if allocs := testing.AllocsPerRun(20, func() { NewSlab(k, 100) }); allocs != 3 {
			t.Errorf("NewSlab(%d, 100) makes %.0f allocations, want 3", k, allocs)
		}
	}
}

func TestEmptyAndLen(t *testing.T) {
	s := New(10)
	if !s.Empty() || s.Len() != 10 {
		t.Error("fresh set wrong")
	}
	s.Add(3)
	if s.Empty() {
		t.Error("nonempty set reported empty")
	}
	if New(0).Len() != 0 {
		t.Error("zero capacity")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := FromIndices(100, 1, 50, 99)
	c := s.Clone()
	c.Add(2)
	if s.Contains(2) {
		t.Error("clone not independent")
	}
	if !c.Contains(50) {
		t.Error("clone lost element")
	}
}

func TestEqual(t *testing.T) {
	a := FromIndices(70, 1, 65)
	b := FromIndices(70, 1, 65)
	if !a.Equal(b) {
		t.Error("equal sets unequal")
	}
	b.Add(2)
	if a.Equal(b) {
		t.Error("unequal sets equal")
	}
	if a.Equal(FromIndices(71, 1, 65)) {
		t.Error("different capacities equal")
	}
}

func TestIntersectsSubset(t *testing.T) {
	a := FromIndices(130, 5, 70, 129)
	b := FromIndices(130, 70)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("intersection missed")
	}
	if !b.SubsetOf(a) {
		t.Error("subset missed")
	}
	if a.SubsetOf(b) {
		t.Error("superset accepted as subset")
	}
	c := FromIndices(130, 6)
	if a.Intersects(c) {
		t.Error("phantom intersection")
	}
	if !New(130).SubsetOf(a) {
		t.Error("empty set must be subset of everything")
	}
}

func TestUnionWith(t *testing.T) {
	a := FromIndices(80, 1, 2)
	b := FromIndices(80, 2, 79)
	a.UnionWith(b)
	if a.Count() != 3 || !a.Contains(79) {
		t.Errorf("union wrong: %s", a)
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := FromIndices(200, 150, 3, 64, 63)
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	want := []int{3, 63, 64, 150}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v", got)
		}
	}
	count := 0
	s.ForEach(func(i int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestFirst(t *testing.T) {
	if New(50).First() != -1 {
		t.Error("empty set First should be -1")
	}
	if FromIndices(128, 127).First() != 127 {
		t.Error("First wrong")
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		s := New(150)
		for i := 0; i < 150; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
		}
		seen[s.Key()] = true
	}
	// Distinct random sets should give distinct keys (collision odds
	// are negligible at 150 random bits).
	if len(seen) < 195 {
		t.Errorf("suspiciously many key collisions: %d distinct", len(seen))
	}
	a := FromIndices(100, 7)
	b := FromIndices(100, 7)
	if a.Key() != b.Key() {
		t.Error("equal sets different keys")
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(10, 1, 5, 9).String(); got != "{1, 5, 9}" {
		t.Errorf("String = %q", got)
	}
	if got := New(5).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative capacity", func() { New(-1) })
	mustPanic("out of range", func() { New(5).Add(5) })
	mustPanic("negative index", func() { New(5).Contains(-1) })
	mustPanic("capacity mismatch", func() { New(5).Intersects(New(6)) })
}

func TestSetOpsProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		ref := map[int]bool{}
		for _, x := range xs {
			a.Add(int(x))
			ref[int(x)] = true
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		u := a.Clone()
		u.UnionWith(b)
		for _, y := range ys {
			ref[int(y)] = true
		}
		if u.Count() != len(ref) {
			return false
		}
		for i := range ref {
			if !u.Contains(i) {
				return false
			}
		}
		return a.SubsetOf(u) && b.SubsetOf(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

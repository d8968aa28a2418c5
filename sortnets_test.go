package sortnets

import (
	"testing"

	"sortnets/internal/faults"
)

// Tests of the package-level constructors, bounds, fault enumeration,
// analysis and exact search; verdict checks run on a Session
// (session_test.go).

func TestFacadeParseAndCheck(t *testing.T) {
	w, err := ParseNetwork("n=4: [1,3][2,4][1,2][3,4]")
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	defer sess.Close()
	if check(t, sess, w, SorterProp{N: 4}).Holds {
		t.Error("the Fig. 1 network is not a sorter")
	}
	if _, err := ParseNetwork("n=4: [4,1]"); err == nil {
		t.Error("nonstandard comparator accepted")
	}
	if _, err := ParseVec("012"); err == nil {
		t.Error("bad vector accepted")
	}
	if _, err := ParsePerm("(1 1)"); err == nil {
		t.Error("bad permutation accepted")
	}
}

func TestFacadeCanonicalDigest(t *testing.T) {
	a := MustParseNetwork("n=4: [1,3][2,4][1,2][3,4]")
	b := MustParseNetwork("n=4: [2,4][1,3][1,2][3,4]") // first layer interleaved
	if NetworkDigest(a) != NetworkDigest(b) {
		t.Error("within-layer reordering changed the digest")
	}
	c := CanonicalNetwork(a)
	if NetworkDigest(c) != NetworkDigest(a) {
		t.Error("canonicalization changed the digest")
	}
	for x := uint64(0); x < 16; x++ {
		in := Vec{N: 4, Bits: x}
		if c.ApplyVec(in) != a.ApplyVec(in) {
			t.Fatalf("canonical form diverges on %s", in)
		}
	}
}

func TestFacadeTestSetSizes(t *testing.T) {
	if SorterTestSetSize(10) != "1013" {
		t.Errorf("sorter size: %s", SorterTestSetSize(10))
	}
	if SorterPermTestSetSize(4) != "5" {
		t.Errorf("perm size: %s", SorterPermTestSetSize(4))
	}
	if SelectorTestSetSize(4, 2) != "8" {
		t.Errorf("selector size: %s", SelectorTestSetSize(4, 2))
	}
	if MergerTestSetSize(8) != "16" {
		t.Errorf("merger size: %s", MergerTestSetSize(8))
	}
	// Exact sizes scale beyond enumerable n.
	if len(SorterTestSetSize(100)) < 30 {
		t.Error("big-n size should be a 31-digit number")
	}
}

func TestFacadeExactSearchOpts(t *testing.T) {
	seq, err := ExactMinimumTestSetOpts(4, 2, SearchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExactMinimumTestSetOpts(4, 2, SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Size != par.Size || seq.Size != 11 {
		t.Errorf("sequential %d vs parallel %d, want 11", seq.Size, par.Size)
	}
	p, err := ExactMinimumPermTestSetOpts(4, 3, SearchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Exact || p.Size != 5 {
		t.Errorf("perm minimum %d (exact=%v), want 5", p.Size, p.Exact)
	}
}

func TestFacadeExactSearch(t *testing.T) {
	r, err := ExactMinimumTestSet(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 11 {
		t.Errorf("exact minimum for n=4: %d, want 11", r.Size)
	}
	r1, err := ExactMinimumTestSet(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Size != 4 {
		t.Errorf("height-1 minimum for n=5: %d, want 4", r1.Size)
	}
}

func TestFacadeChains(t *testing.T) {
	cs := SorterPermutationChains(6)
	if len(cs) != 20 {
		t.Errorf("C(6,3)=20 chains expected, got %d", len(cs))
	}
}

func TestFacadeAnalysis(t *testing.T) {
	w := OptimalSorter(5).Clone().AddPair(3, 4) // pad with a dead comparator
	st := w.Analyze()
	if st.Redundant != 1 {
		t.Errorf("stats: %+v", st)
	}
	r := w.RemoveRedundant()
	if r.Size() != w.Size()-1 {
		t.Errorf("reduced size %d", r.Size())
	}
	if !Equivalent(w, r) {
		t.Error("reduction changed behaviour")
	}
}

func TestFacadeExactPermSearch(t *testing.T) {
	r, err := ExactMinimumPermTestSet(4, 3)
	if err != nil || !r.Exact || r.Size != 5 {
		t.Fatalf("perm search: %v %v", r, err)
	}
	r1, err := ExactMinimumPermTestSet(5, 1)
	if err != nil || !r1.Exact || r1.Size != 1 {
		t.Fatalf("de Bruijn search: %v %v", r1, err)
	}
}

func TestFacadeBuildersSortOrMerge(t *testing.T) {
	sess := NewSession()
	defer sess.Close()
	for n := 2; n <= 9; n++ {
		if !check(t, sess, BubbleSorter(n), SorterProp{N: n}).Holds {
			t.Errorf("bubble %d", n)
		}
		if !check(t, sess, OddEvenTranspositionSorter(n), SorterProp{N: n}).Holds {
			t.Errorf("OET %d", n)
		}
	}
	if OddEvenTranspositionSorter(7).Height() != 1 {
		t.Error("OET should be height-1")
	}
}

// TestFacadeCompileFault: a fault from EnumerateFaults compiles
// (faults.Compile) to an impure program that the minimal test set
// exposes.
func TestFacadeCompileFault(t *testing.T) {
	w := BatcherSorter(6)
	fs := EnumerateFaults(w)
	p := faults.Compile(w, fs[0])
	if p.Pure() {
		t.Error("bypass-fault program should not be pure")
	}
	// A bypassed comparator in a Batcher sorter must fail some input.
	found := false
	it := SorterProp{N: 6}.BinaryTests()
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		if !p.Apply(v).IsSorted() {
			found = true
			break
		}
	}
	if !found {
		t.Error("bypassed comparator never visible on the minimal test set")
	}
}

package network

import (
	"math/rand"
	"testing"

	"sortnets/internal/bitvec"
)

// batchWords are the words-per-line the batch tests cover: the
// single-word layout, every block width the compiled engine uses, and
// one beyond its cap.
var batchWords = []int{1, 2, 3, 4, 8}

// TestBatchLaneRoundTrip: SetLane/Lane must round-trip every lane of
// the single-word layout.
func TestBatchLaneRoundTrip(t *testing.T) {
	checkLaneRoundTrip(t, rand.New(rand.NewSource(5)), []int{1})
}

// TestWideBatchLaneRoundTrip: SetLane/Lane must round-trip every lane
// position at every multi-word count, including the high words.
func TestWideBatchLaneRoundTrip(t *testing.T) {
	checkLaneRoundTrip(t, rand.New(rand.NewSource(11)), batchWords[1:])
}

func checkLaneRoundTrip(t *testing.T, rng *rand.Rand, words []int) {
	t.Helper()
	for _, w := range words {
		n := 1 + rng.Intn(30)
		b := NewBatch(n, w)
		vecs := make([]bitvec.Vec, 64*w)
		for lane := range vecs {
			vecs[lane] = bitvec.New(n, rng.Uint64()&(uint64(1)<<uint(n)-1))
			b.SetLane(lane, vecs[lane])
		}
		for lane, want := range vecs {
			if got := b.Lane(lane); got != want {
				t.Fatalf("W=%d n=%d lane %d: got %s, want %s", w, n, lane, got, want)
			}
		}
		if b.Lanes != 64*w {
			t.Fatalf("W=%d: Lanes = %d, want %d", w, b.Lanes, 64*w)
		}
	}
}

// TestApplyBatchMatchesApplyVec: pushing 64 random vectors through
// ApplyBatch on the single-word layout must equal the scalar reference
// evaluator on every lane.
func TestApplyBatchMatchesApplyVec(t *testing.T) {
	checkApplyBatch(t, rand.New(rand.NewSource(12)), []int{1})
}

// TestApplyWideBatchMatchesApplyVec: the same over 64·W vectors at
// every multi-word count.
func TestApplyWideBatchMatchesApplyVec(t *testing.T) {
	checkApplyBatch(t, rand.New(rand.NewSource(17)), batchWords[1:])
}

func checkApplyBatch(t *testing.T, rng *rand.Rand, words []int) {
	t.Helper()
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(15)
		net := Random(n, rng.Intn(4*n), rng)
		for _, w := range words {
			ins := make([]bitvec.Vec, 64*w)
			for lane := range ins {
				ins[lane] = bitvec.New(n, rng.Uint64()&(uint64(1)<<uint(n)-1))
			}
			b := LoadVecs(n, ins)
			if b.W != w {
				t.Fatalf("LoadVecs of %d vectors: W = %d, want %d", len(ins), b.W, w)
			}
			net.ApplyBatch(b)
			for lane, in := range ins {
				if got, want := b.Lane(lane), net.ApplyVec(in); got != want {
					t.Fatalf("trial %d W=%d lane %d: ApplyBatch %s, ApplyVec %s (net %s)",
						trial, w, lane, got, want, net.Format())
				}
			}
		}
	}
}

func TestUnsortedLanes(t *testing.T) {
	vs := []bitvec.Vec{
		bitvec.MustFromString("0011"), // sorted
		bitvec.MustFromString("0110"), // not
		bitvec.MustFromString("1111"), // sorted
		bitvec.MustFromString("1000"), // not
	}
	var viol [1]uint64
	LoadVecs(4, vs).UnsortedLanes(viol[:])
	if viol[0] != 0b1010 {
		t.Errorf("UnsortedLanes = %b, want 1010", viol[0])
	}
}

// TestWideUnsortedLanes: the word-vector violation mask must agree
// with the scalar IsSorted on every occupied lane and stay clear
// beyond Lanes.
func TestWideUnsortedLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	viol := make([]uint64, 8)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		for _, w := range batchWords {
			b := NewBatch(n, w)
			occupied := 1 + rng.Intn(64*w)
			vecs := make([]bitvec.Vec, occupied)
			for lane := range vecs {
				vecs[lane] = bitvec.New(n, rng.Uint64()&(uint64(1)<<uint(n)-1))
				b.SetLane(lane, vecs[lane])
			}
			b.UnsortedLanes(viol[:w])
			for lane := 0; lane < 64*w; lane++ {
				got := viol[lane>>6]>>uint(lane&63)&1 == 1
				want := lane < occupied && !vecs[lane].IsSorted()
				if got != want {
					t.Fatalf("trial %d W=%d n=%d occupied=%d lane %d: violation=%v, want %v",
						trial, w, n, occupied, lane, got, want)
				}
			}
		}
	}
}

// TestMaskLanes: every lane at or above the count must clear, every
// lane below must survive.
func TestMaskLanes(t *testing.T) {
	for _, w := range batchWords {
		for _, lanes := range []int{1, 63, 64, 65, 64*w - 1, 64 * w} {
			if lanes > 64*w {
				continue
			}
			mask := make([]uint64, w)
			for g := range mask {
				mask[g] = ^uint64(0)
			}
			MaskLanes(mask, lanes)
			for lane := 0; lane < 64*w; lane++ {
				got := mask[lane>>6]>>uint(lane&63)&1 == 1
				if got != (lane < lanes) {
					t.Fatalf("W=%d lanes=%d: bit %d = %v", w, lanes, lane, got)
				}
			}
		}
	}
}

// TestLoadConsecutive: wholesale loading of inputs base..base+k−1
// (bitvec.LoadConsecutive) must equal installing each input lane by
// lane, at every word count a block can take, ragged last words
// included.
func TestLoadConsecutive(t *testing.T) {
	for _, n := range []int{1, 5, 6, 9, 12} {
		total := 1 << uint(n)
		for base := 0; base < total; base += 64 {
			for _, k := range []int{1, 63, 64, 65, 130, 255, 256} {
				if base+k > total {
					continue
				}
				w := (k + 63) / 64
				got := NewBatch(n, w)
				bitvec.LoadConsecutive(got.Lines, n, uint64(base), k)
				want := NewBatch(n, w)
				for lane := 0; lane < k; lane++ {
					want.SetLane(lane, bitvec.New(n, uint64(base+lane)))
				}
				for lane := 0; lane < k; lane++ {
					if got.Lane(lane) != want.Lane(lane) {
						t.Fatalf("n=%d base=%d k=%d lane %d: %s, want %s", n, base, k, lane, got.Lane(lane), want.Lane(lane))
					}
				}
			}
		}
	}
}

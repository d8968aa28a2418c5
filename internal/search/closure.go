package search

import (
	"context"
	"encoding/binary"
	"fmt"
)

// The closure engine behind Closure and PermClosure: a reachability
// BFS over behaviour tables, stored as one flat byte arena of
// fixed-stride entries with dense IDs 0..Count()-1 instead of a
// map[struct]bool of large keys, and deduplicated through an
// open-addressing table that probes straight into the arena. Dense
// storage is what lets the failure-family passes walk behaviours as
// contiguous bytes, with no string re-slicing and no map iteration.

// behaviorStore holds a behaviour closure as an arena of fixed-stride
// tables in chunks of closureChunk entries: entry i occupies
// at(i), in chunk i/closureChunk. Entry 0 is always the seed
// (identity) behaviour. Entries are immutable once appended, and a
// full chunk is never copied, so a closure holds its entries' bytes
// plus at most one chunk, not an append slice's doubling.
type behaviorStore struct {
	stride int
	chunks [][]byte
	count  int
	// BFS spanning-tree edges: entry i > 0 was first reached by
	// applying rule ruleOf[i] to entry parentOf[i] (< i). They let a
	// closure computed over one representation be replayed cheaply in
	// another (Floyd's binary↔permutation correspondence).
	parentOf []int32
	ruleOf   []int32
}

// closureChunk is the entries per arena chunk, a power of two: 64 KB
// of 6-line tables.
const closureChunk = 1 << 10

func (s *behaviorStore) at(i int) []byte {
	o := (i & (closureChunk - 1)) * s.stride
	return s.chunks[i/closureChunk][o : o+s.stride]
}

// add appends an entry to a store of at most limit entries
// (0 = unlimited) and returns it for the caller to fill. Chunks are
// allocated whole, but never past the limit; without one, the first
// chunk grows by doubling until it is full, so a small closure stays
// small.
func (s *behaviorStore) add(limit int) []byte {
	k := s.count / closureChunk
	if k == len(s.chunks) {
		size := closureChunk
		if limit > 0 {
			size = min(size, limit-s.count)
		} else if k == 0 {
			size = 1
		}
		s.chunks = append(s.chunks, make([]byte, 0, size*s.stride))
	}
	c := s.chunks[k]
	if len(c) == cap(c) {
		size := min(2*len(c)/s.stride, closureChunk)
		if limit > 0 {
			size = min(size, limit-k*closureChunk)
		}
		c = append(make([]byte, 0, size*s.stride), c...)
	}
	s.chunks[k] = c[:len(c)+s.stride]
	s.count++
	return s.chunks[k][len(c):]
}

// expandFunc applies rule c (a comparator index into the alphabet) to
// the behaviour table src, writing the successor table to dst. dst and
// src never alias.
type expandFunc func(dst, src []byte, c int)

func errClosureLimit(limit int) error {
	return fmt.Errorf("search: behaviour closure exceeds limit %d", limit)
}

// closureStore enumerates the closure of seed under degree expansion
// rules by BFS, in the classical deterministic BFS order. limit caps
// the number of behaviours (0 = unlimited); exceeding it returns an
// error so callers never silently truncate a universe they meant to
// exhaust.
func closureStore(ctx context.Context, stride int, seed []byte, degree int, expand expandFunc, limit int) (*behaviorStore, error) {
	if len(seed) != stride {
		panic(fmt.Sprintf("search: seed has %d bytes, stride is %d", len(seed), stride))
	}
	st := &behaviorStore{
		stride:   stride,
		parentOf: []int32{-1},
		ruleOf:   []int32{-1},
	}
	copy(st.add(0), seed)
	return st, st.bfsSeq(ctx, degree, expand, limit)
}

// internTable is an open-addressing dedupe index over the arena: slots
// hold id+1 (0 = empty) and keys are compared against the arena bytes
// directly, so lookups allocate nothing and carry no pointer for the
// GC to trace — unlike a map[string]int32 of table keys, whose hashing
// and write barriers dominated the closure profile.
type internTable struct {
	slots []int32
	mask  uint64
	n     int
}

func newInternTable() *internTable {
	return &internTable{slots: make([]int32, 256), mask: 255}
}

// hashBytes mixes the key a word at a time (multiply + xor-shift;
// byte-wise FNV for the tail). Collisions are harmless — probes
// compare the full key against the arena — so speed beats
// cryptographic spread here.
func hashBytes(key []byte) uint64 {
	h := uint64(14695981039346656037)
	i := 0
	for ; i+8 <= len(key); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(key[i:])) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	for ; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}

// lookupOrClaim probes for key; when present it reports found, and
// otherwise claims the next slot for the id the caller is about to
// append (the caller MUST append key to the arena at that id).
func (t *internTable) lookupOrClaim(st *behaviorStore, key []byte, id int32) (found bool) {
	if uint64(t.n)*4 >= uint64(len(t.slots))*3 {
		t.grow(st)
	}
	i := hashBytes(key) & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = id + 1
			t.n++
			return false
		}
		if string(st.at(int(s-1))) == string(key) {
			return true
		}
		i = (i + 1) & t.mask
	}
}

func (t *internTable) grow(st *behaviorStore) {
	old := t.slots
	t.slots = make([]int32, len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := hashBytes(st.at(int(s-1))) & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// bfsSeq expands behaviours in queue order through one intern table,
// so IDs and parent edges are the same on every run. Cancellation is
// checked once every 256 dequeued behaviours (each a block of degree
// expansions).
func (st *behaviorStore) bfsSeq(ctx context.Context, degree int, expand expandFunc, limit int) error {
	seen := newInternTable()
	seen.lookupOrClaim(st, st.at(0), 0)
	scratch := make([]byte, st.stride)
	for head := 0; head < st.count; head++ {
		if head&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// The first chunk may be copied by add below; entries already
		// written stay valid in the old backing array, so src needs no
		// refresh inside the inner loop.
		src := st.at(head)
		for c := 0; c < degree; c++ {
			expand(scratch, src, c)
			if seen.lookupOrClaim(st, scratch, int32(st.count)) {
				continue
			}
			if limit > 0 && st.count >= limit {
				return errClosureLimit(limit)
			}
			copy(st.add(limit), scratch)
			st.parentOf = append(st.parentOf, int32(head))
			st.ruleOf = append(st.ruleOf, int32(c))
		}
	}
	return nil
}

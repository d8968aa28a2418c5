package search

import (
	"math/bits"
	"slices"

	"sortnets/internal/bitset"
)

// Superset pruning, popcount-bucketed. Each family is first sorted
// into canonical (popcount, content) order, which puts duplicates next
// to each other, so deduplication is one comparison with the previous
// member. A set can then only be dominated by one of strictly smaller
// cardinality, so each candidate is checked against the survivors of
// strictly smaller popcount only (for one-word masks, with the
// singleton bucket collapsed into a single union mask: a membership
// test instead of a scan). Output is in canonical order, so downstream
// solving does not depend on closure enumeration order.

// pruneSupersets prunes a family of single-word masks. A counting
// pass over the popcounts buckets the masks into canonical order, each
// bucket then sorted by value, so no comparison recomputes a popcount
// and a candidate is checked only against the multi-line survivors of
// the buckets before its own. The survivors overwrite fam's prefix.
func pruneSupersets(fam []uint64) []uint64 {
	if len(fam) == 0 {
		return nil
	}
	// start[pc] is where popcount pc's bucket begins in sorted.
	var start [66]int
	for _, m := range fam {
		start[bits.OnesCount64(m)+1]++
	}
	for pc := 1; pc < len(start); pc++ {
		start[pc] += start[pc-1]
	}
	sorted := make([]uint64, len(fam))
	next := start
	for _, m := range fam {
		pc := bits.OnesCount64(m)
		sorted[next[pc]] = m
		next[pc]++
	}
	var singles uint64
	out := fam[:0]
	multi := 0 // out[multi:] are the survivors of popcount ≥ 2
	for pc := 0; pc <= 64; pc++ {
		bucket := sorted[start[pc]:start[pc+1]]
		slices.Sort(bucket)
		if pc == 2 {
			multi = len(out)
		}
		smaller := out[multi:]
		for i, m := range bucket {
			if i > 0 && m == bucket[i-1] {
				continue
			}
			if pc == 1 {
				singles |= m
				out = append(out, m)
				continue
			}
			if m&singles != 0 {
				continue // contains a singleton survivor
			}
			dominated := false
			for _, s := range smaller {
				if s&^m == 0 {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, m)
			}
		}
	}
	return out
}

// maskRow is one family member as a row of 64-bit words (element e at
// bit e&63 of word e>>6), with its cached popcount and the index of
// the object it came from. It is the one family representation of the
// hitting-set pipeline.
type maskRow struct {
	words []uint64
	pc    int
	src   int
}

// maskRows views single-word masks as one-word rows.
func maskRows(fam []uint64) []maskRow {
	rows := make([]maskRow, len(fam))
	for i := range fam {
		rows[i] = maskRow{words: fam[i : i+1 : i+1], pc: bits.OnesCount64(fam[i]), src: i}
	}
	return rows
}

// setRows views bitsets as rows over their backing words.
func setRows(fam []*bitset.Set) []maskRow {
	rows := make([]maskRow, len(fam))
	for i, s := range fam {
		rows[i] = maskRow{words: s.Words(), pc: s.Count(), src: i}
	}
	return rows
}

// pruneSupersetRows prunes multi-word rows; it returns the surviving
// rows, without duplicates, in canonical (popcount, content) order. The
// sort moves pointer-free keys, not the rows.
func pruneSupersetRows(rows []maskRow) []maskRow {
	type rowKey struct{ pc, i int32 }
	keys := make([]rowKey, len(rows))
	for i, r := range rows {
		keys[i] = rowKey{int32(r.pc), int32(i)}
	}
	slices.SortFunc(keys, func(a, b rowKey) int {
		if a.pc != b.pc {
			return int(a.pc - b.pc)
		}
		return slices.Compare(rows[a.i].words, rows[b.i].words)
	})
	kept := keys[:0] // overwrites only keys the scan has passed
	var prev []uint64
	for _, k := range keys {
		r := rows[k.i].words
		if prev != nil && slices.Equal(r, prev) {
			continue
		}
		prev = r
		dominated := false
		for _, s := range kept {
			if s.pc >= k.pc {
				break
			}
			if subsetWords(rows[s.i].words, r) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, k)
		}
	}
	out := make([]maskRow, len(kept))
	for j, k := range kept {
		out[j] = rows[k.i]
	}
	return out
}

// pruneSupersetSets prunes a family of bitsets (the permutation-space
// path); survivors are returned in canonical (popcount, content)
// order.
func pruneSupersetSets(fam []*bitset.Set) []*bitset.Set {
	kept := pruneSupersetRows(setRows(fam))
	out := make([]*bitset.Set, len(kept))
	for i, r := range kept {
		out[i] = fam[r.src]
	}
	return out
}

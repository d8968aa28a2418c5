// Package serve exercises statscover. Rule A: every typed sync/atomic
// counter field must be Load()ed in some stats/snapshot-named function.
// Rule B: json keys of *Stats/*Snapshot structs must appear in the
// nearest README.md, which for this fixture is the one in this
// directory.
package serve

import "sync/atomic"

type endpointStats struct {
	hits   atomic.Int64
	misses atomic.Int64 // want "atomic counter misses is never Load"
	//lint:ignore statscover epoch is a generation tag the tests compare directly, not telemetry
	epoch atomic.Int64
	// share is a handle on a counter held elsewhere, not a counter.
	share *atomic.Int64
}

// bump is the hot path: increments surface nothing on their own.
func bump(s *endpointStats) {
	s.hits.Add(1)
	s.misses.Add(1)
	s.epoch.Add(1)
	s.share.Add(1)
}

// StatsSnapshot is the operator surface; Raw's key is missing from
// the fixture README.
type StatsSnapshot struct {
	Hits     int64 `json:"hits"`
	Raw      int64 `json:"raw_bytes"` // want `stats key "raw_bytes" \(StatsSnapshot\.Raw\) is not documented`
	internal int64
}

// snapshot reads the counters it surfaces through the typed Load.
func snapshot(s *endpointStats) StatsSnapshot {
	return StatsSnapshot{Hits: s.hits.Load()}
}

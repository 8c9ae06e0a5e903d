// Package matview is kept for benchmark/ only: the engine maintains no
// materialized view, and this package holds just the Stats type whose
// fields benchmark/ reports. ConcurrentTestbed.MatViewStats returns its
// zero value; TestBenchSeamUnused fails on any other use.
package matview

import "time"

// Stats is kept for benchmark/ only. A commit drops the memos it moves
// and the next read re-evaluates, so every field reads 0.
type Stats struct {
	Live         int64
	Maintained   int64
	Rederives    int64
	DeltaTuples  int64
	MaintainTime time.Duration
	Errors       int64
}

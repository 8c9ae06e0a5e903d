package dkbms

import (
	"dkbms/internal/matview"
	"dkbms/internal/sched"
)

// This file holds the seam: identifiers benchmark/ compiles against
// whose subject the engine no longer has. Code outside benchmark/ must
// not use them; TestBenchSeamUnused fails if it does. The seam also
// includes QueryOptions.Parallel, an ignored field, and packages
// internal/sched and internal/matview.

// SchedStats is kept for benchmark/ only. Evaluation runs on the
// calling goroutine, so it returns the zero value.
func (c *ConcurrentTestbed) SchedStats() sched.Stats { return sched.Stats{} }

// MatViewStats is kept for benchmark/ only. A commit drops the memos it
// moves and the next read re-evaluates, so it returns the zero value.
func (c *ConcurrentTestbed) MatViewStats() matview.Stats { return matview.Stats{} }

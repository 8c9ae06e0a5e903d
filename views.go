package dkbms

import (
	"time"

	"dkbms/internal/matview"
)

// MaterializedView describes one maintained view in the shared plan
// cache (dkbd's /views debug endpoint serves these as JSON).
type MaterializedView struct {
	// Query is the cached query's source text.
	Query string `json:"query"`
	// Rows is the current size of the memoized answer.
	Rows int `json:"rows"`
	// Maintains counts commits this view absorbed incrementally.
	Maintains int64 `json:"maintains"`
	// LastDeltaTuples is the derived-delta size of the last
	// maintenance run; LastDuration its wall-clock cost.
	LastDeltaTuples int64         `json:"last_delta_tuples"`
	LastDuration    time.Duration `json:"last_duration_ns"`
}

// Views lists the maintained materialized views currently in the plan
// cache, most recently used first.
func (c *ConcurrentTestbed) Views() []MaterializedView {
	return c.plans.views()
}

// MatViewStats snapshots the materialized-view maintenance counters.
func (c *ConcurrentTestbed) MatViewStats() matview.Stats {
	return c.plans.mvStats()
}

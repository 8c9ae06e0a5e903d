package dkbms

import (
	"time"

	"dkbms/internal/matview"
)

// MaterializedView describes one maintained view in the shared plan
// cache (dkbsh .views and the wire VIEWS reply render these).
type MaterializedView struct {
	// Query is the cached query's source text.
	Query string
	// Rows is the current size of the memoized answer.
	Rows int
	// Maintains counts commits this view absorbed incrementally.
	Maintains int64
	// LastDeltaTuples is the derived-delta size of the last
	// maintenance run; LastDuration its wall-clock cost.
	LastDeltaTuples int64
	LastDuration    time.Duration
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

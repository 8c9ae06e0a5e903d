package dkbms

import (
	"fmt"
	"time"

	"dkbms/internal/matview"
)

// MaintenancePolicy selects what happens to a query's memoized answer
// when a commit changes base tables its program reads.
type MaintenancePolicy int

// Maintenance policies.
const (
	// MaintDefault selects MaintAuto.
	MaintDefault MaintenancePolicy = iota
	// MaintRederive drops the stale memo; the next identical query
	// re-derives from scratch (the pre-view behavior).
	MaintRederive
	// MaintIncremental maintains the memo through every fact commit:
	// insertions propagate along the program's semi-naive delta rules,
	// retractions run Delete-and-Rederive. Coarser changes (rules,
	// relation creation, Resync) still re-derive.
	MaintIncremental
	// MaintAuto maintains incrementally while the commit's relevant
	// delta stays below the cost crossover (matview.AutoIncremental)
	// and re-derives past it.
	MaintAuto
)

// String names the policy.
func (p MaintenancePolicy) String() string {
	switch p {
	case MaintDefault:
		return "default"
	case MaintRederive:
		return "rederive"
	case MaintIncremental:
		return "incremental"
	case MaintAuto:
		return "auto"
	}
	return fmt.Sprintf("maintenancepolicy(%d)", int(p))
}

// ParseMaintenancePolicy parses a policy name as accepted by the dkbd
// -maint-policy flag ("rederive", "incremental", "auto"; "default"
// selects auto).
func ParseMaintenancePolicy(s string) (MaintenancePolicy, error) {
	switch s {
	case "", "default":
		return MaintDefault, nil
	case "rederive":
		return MaintRederive, nil
	case "incremental":
		return MaintIncremental, nil
	case "auto":
		return MaintAuto, nil
	}
	return MaintDefault, fmt.Errorf("dkbms: unknown maintenance policy %q (want rederive, incremental or auto)", s)
}

// MaterializedView describes one maintained view in the shared plan
// cache (dkbsh .views and the wire VIEWS reply render these).
type MaterializedView struct {
	// Query is the cached query's source text.
	Query string
	// Policy is the testbed's maintenance policy.
	Policy MaintenancePolicy
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

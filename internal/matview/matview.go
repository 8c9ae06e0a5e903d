// Package matview maintains memoized query answers as materialized
// views. A view owns the derived-relation temp tables an evaluation
// left behind (rtlib's accumulators, transferred via Result.Detach) and
// refreshes them in place when a commit changes base tables the
// compiled program reads. Insert-maintenance is semi-naive evaluation
// seeded with a commit's delta instead of the EDB, and the over-delete
// half of Delete-and-Rederive is the same thing run against the
// pre-state into candidate tables, so both are runs of rtlib's one
// fixpoint driver (rtlib.Fixpoint); this package holds only what is
// specific to views: restricting a commit's footprint to what the
// program reads, reconstructing the pre-state, removing candidates with
// seed protection, and re-deriving the survivors. The plan cache
// promotes result entries into views and calls Maintain from the
// single-writer commit path, so a hot query's memo survives writes
// instead of forcing a full re-derivation stampede.
//
// The language is pure function-free Horn clauses, so the immediate-
// consequence operator is monotone and both directions are sound; the
// caller falls back to full re-derivation for anything coarser than a
// fact delta (rule changes, relation creation, out-of-band mutation) or
// when the delta is large enough that re-deriving is cheaper (see
// AutoIncremental).
package matview

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

// EventKind classifies a commit for cache invalidation.
type EventKind int

// Invalidation event kinds.
const (
	// EventFlush drops every cached plan, memo and view (out-of-band
	// mutation: generations did not move, nothing can be trusted).
	EventFlush EventKind = iota
	// EventCommit is a fact-level commit whose exact per-table deltas
	// are in Event.Deltas — the only kind views can be maintained
	// through.
	EventCommit
	// EventRuleGen is a rule-base change (Load with rules, Update,
	// relation creation): compiled programs are stale, memos re-derive.
	EventRuleGen
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventFlush:
		return "flush"
	case EventCommit:
		return "commit"
	case EventRuleGen:
		return "rulegen"
	}
	return fmt.Sprintf("eventkind(%d)", int(k))
}

// TableDelta is one base table's exact fact delta within a commit.
type TableDelta struct {
	// Table is the extensional table name (codegen.BaseTable form).
	Table string
	// Inserted and Deleted are the tuples the commit added/removed.
	Inserted []rel.Tuple
	Deleted  []rel.Tuple
}

// Event is a typed invalidation event: what one commit did, at the
// granularity the plan cache needs to decide between maintaining a view
// and dropping its memo.
type Event struct {
	Kind   EventKind
	Deltas []TableDelta
}

// Size returns the total number of delta tuples across tables.
func (e *Event) Size() int {
	n := 0
	for _, d := range e.Deltas {
		n += len(d.Inserted) + len(d.Deleted)
	}
	return n
}

// RelevantSize returns the number of delta tuples landing in the given
// tables (the dependency set of one view's program).
func (e *Event) RelevantSize(deps []string) int {
	n := 0
	for _, d := range e.Deltas {
		for _, t := range deps {
			if d.Table == t {
				n += len(d.Inserted) + len(d.Deleted)
				break
			}
		}
	}
	return n
}

// AutoIncremental is the maintenance cost model, which decides per view
// and per commit: maintain incrementally while the relevant base delta
// stays below a quarter of the memoized answer (with a floor of 16
// tuples so small views still take the incremental path for single-fact
// commits). Past that crossover the semi-naive delta rounds approach
// the cost of a fresh evaluation and re-deriving wins.
func AutoIncremental(deltaTuples, viewRows int) bool {
	limit := viewRows / 4
	if limit < 16 {
		limit = 16
	}
	return deltaTuples <= limit
}

// viewSeq distinguishes concurrent maintenance runs' temp table names
// within one process.
var viewSeq atomic.Uint64

// View is one maintained materialized view: the compiled program plus
// ownership of the derived-relation temp tables its evaluation
// produced. Maintenance (and Drop) run only on the single-writer commit
// path; the telemetry fields are atomics because Views listings read
// them concurrently with a maintenance run.
type View struct {
	prog *codegen.Program
	// tables maps derived predicates to their accumulator temp tables;
	// base predicates fall through to their extensional tables.
	tables  map[string]string
	created []string
	// preds are the derived predicates (sorted) and rules every
	// compiled rule of the program, exit and recursive across all
	// evaluation-order nodes: what maintenance differentiates.
	preds []string
	rules []codegen.RuleSQL

	maintains atomic.Int64
	lastDelta atomic.Int64
	lastNs    atomic.Int64
	lastTrace atomic.Pointer[obs.Trace]
}

// New wraps a detached evaluation (rtlib Result.Detach) as a view.
func New(prog *codegen.Program, tables map[string]string, created []string) *View {
	v := &View{prog: prog, tables: tables, created: created}
	for p := range tables {
		v.preds = append(v.preds, p)
	}
	sort.Strings(v.preds)
	for i := range prog.Nodes {
		v.rules = append(v.rules, prog.Nodes[i].ExitRules...)
		v.rules = append(v.rules, prog.Nodes[i].RecursiveRules...)
	}
	return v
}

// Maintains returns how many commits this view absorbed incrementally.
func (v *View) Maintains() int64 { return v.maintains.Load() }

// LastDeltaTuples returns the derived-delta size of the last
// maintenance run (over-deleted plus newly derived tuples).
func (v *View) LastDeltaTuples() int64 { return v.lastDelta.Load() }

// LastDuration returns the wall-clock cost of the last maintenance run.
func (v *View) LastDuration() time.Duration { return time.Duration(v.lastNs.Load()) }

// LastTrace returns the span tree recorded by the last maintenance run
// (delta sizes and phase timings), or nil before the first one.
func (v *View) LastTrace() *obs.Trace { return v.lastTrace.Load() }

// tableOf resolves a predicate to the view's accumulator or the live
// extensional table.
func (v *View) tableOf(pred string) string {
	if t, ok := v.tables[pred]; ok {
		return t
	}
	return codegen.BaseTable(pred)
}

// Drop releases the view's temp tables. Safe to call once, from the
// single writer; the view must not be maintained afterwards.
func (v *View) Drop(d *db.DB) error {
	var firstErr error
	for _, t := range v.created {
		if err := d.DropTable(t); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	v.created = nil
	return firstErr
}

// Counters aggregates maintenance telemetry across a plan cache's
// views (cumulative; the live-view gauge is derived from the cache).
type Counters struct {
	Maintained  atomic.Int64
	Rederives   atomic.Int64
	DeltaTuples atomic.Int64
	MaintainNs  atomic.Int64
	Errors      atomic.Int64
}

// Stats is a point-in-time snapshot of Counters plus the live-view
// population.
type Stats struct {
	// Live is the number of maintained views currently in the cache.
	Live int64
	// Maintained counts commits absorbed incrementally (per view).
	Maintained int64
	// Rederives counts stale views dropped for full re-derivation (a
	// delta past the AutoIncremental crossover, or a commit with no exact
	// fact delta).
	Rederives int64
	// DeltaTuples is the cumulative derived-delta volume maintained.
	DeltaTuples int64
	// MaintainTime is the cumulative wall-clock maintenance cost.
	MaintainTime time.Duration
	// Errors counts maintenance or teardown failures (each drops the
	// affected view).
	Errors int64
}

// Snapshot reads the counters.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Maintained:   c.Maintained.Load(),
		Rederives:    c.Rederives.Load(),
		DeltaTuples:  c.DeltaTuples.Load(),
		MaintainTime: time.Duration(c.MaintainNs.Load()),
		Errors:       c.Errors.Load(),
	}
}

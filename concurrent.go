package dkbms

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dkbms/internal/catalog"
	"dkbms/internal/core"
	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/matview"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/sched"
	"dkbms/internal/snapshot"
	"dkbms/internal/storage"
	"dkbms/internal/stored"
)

// ConcurrentTestbed makes one Testbed safe for use from many goroutines
// — the shared-testbed concurrency control behind the dkbd server. The
// paper's testbed is a single-user harness; this wrapper applies the
// observation of its conclusion 7a (recursive equations evaluate
// correctly in parallel over a shared DBMS) across sessions, using
// MVCC-lite snapshot isolation instead of a reader/writer lock:
//
//   - queries pin the current engine snapshot (internal/snapshot): an
//     immutable view of the rule workspace and every base-table version
//     at one commit boundary. Pinning is an atomic pointer load plus a
//     reference count — readers never take a lock a writer holds, so a
//     long LOAD or RETRACT no longer convoys the whole read side;
//   - Load, Retract and Update serialize on a commit mutex,
//     copy only the tables they touch (copy-on-write at table
//     granularity), apply themselves to the copies, and publish the
//     successor snapshot atomically. In-flight queries keep reading the
//     versions their snapshot pinned; those versions are reclaimed when
//     the last reader drains;
//   - a query therefore always observes a committed state — entirely
//     before or entirely after any concurrent update, never between.
//
// Query additionally consults a shared plan cache: compiled evaluation
// programs are keyed by (query text, options) and reused across sessions
// while the rule-base generation stands still, and a query's answer is
// memoized with the set of base-table versions it was computed from —
// so an update invalidates only the answers that read the tables it
// touched, and a hot query repeated by many sessions skips the whole
// parse→typecheck→magic→codegen pipeline (and, when its tables are
// unchanged, the LFP evaluation too).
//
// The zero value is not usable; wrap an open Testbed with NewConcurrent.
type ConcurrentTestbed struct {
	// commitMu serializes the write path (planning, table
	// copies, the update itself, snapshot publication) and Close. The
	// read path never takes it.
	commitMu sync.Mutex
	tb       *Testbed
	snaps    *snapshot.Store
	plans    *planCache
	// closed is set by Close before the reader drain; readers check it
	// after pinning so a query admitted during shutdown backs out.
	closed atomic.Bool
}

// NewConcurrent wraps a testbed for concurrent use. The caller must not
// use the wrapped testbed directly afterwards (see Testbed). Every
// session's parallel work runs on the testbed's evaluation pool, so
// evaluation goroutines stay bounded however many sessions recurse at
// once.
func NewConcurrent(tb *Testbed) *ConcurrentTestbed {
	c := &ConcurrentTestbed{
		tb:    tb,
		snaps: snapshot.NewStore(BaseTableName("")),
		plans: newPlanCache(tb.db, tb.pool),
	}
	c.publish(0) // the initial snapshot: the testbed state as wrapped
	return c
}

// SchedStats snapshots the counters of the wrapped testbed's
// evaluation pool.
func (c *ConcurrentTestbed) SchedStats() sched.Stats {
	return c.tb.SchedStats()
}

// Testbed returns the wrapped testbed for single-goroutine phases
// (setup, teardown, benchmarks). Direct mutations bypass snapshot
// publication: they are invisible to queries (and racy against any
// concurrent reader) until Resync republishes the live state.
func (c *ConcurrentTestbed) Testbed() *Testbed { return c.tb }

// Resync republishes the engine snapshot from the live testbed state
// and emits a flush invalidation event, dropping every cached plan,
// result and maintained view (out-of-band mutation moves no
// generations, so nothing cached can be trusted). Call it after
// mutating the wrapped testbed directly in a phase with no concurrent
// readers.
func (c *ConcurrentTestbed) Resync() {
	//dkblint:locksafe single-writer commit protocol: writers serialize on commitMu through publication I/O; readers never take it
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if c.closed.Load() {
		return
	}
	c.publishEvent(0, &matview.Event{Kind: matview.EventFlush})
}

// Close shuts the testbed down after all in-flight queries drain and
// every superseded table version has been reclaimed.
func (c *ConcurrentTestbed) Close() error {
	//dkblint:locksafe shutdown drains in-flight readers under commitMu by design; no new commit can interleave with the close
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if !c.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	// New readers now back out at the post-pin closed check; wait for
	// admitted ones (and the version reclamation their releases
	// trigger) before closing the pager under them.
	c.snaps.Shutdown()
	return c.tb.Close()
}

// acquire pins the current snapshot for one read operation. The closed
// re-check after pinning pairs with Close: either Close's drain
// observes our pin and waits, or we observe closed and back out — a
// reader never touches storage the pager has released.
func (c *ConcurrentTestbed) acquire() (*snapshot.Snapshot, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	s := c.snaps.Acquire()
	if c.closed.Load() {
		s.Release()
		return nil, ErrClosed
	}
	return s, nil
}

// view returns database and stored-manager views bound to the pinned
// snapshot: every base-table resolution inside them lands on the
// snapshot's frozen versions, while session-private temp tables fall
// through to the live catalog.
func (c *ConcurrentTestbed) view(s *snapshot.Snapshot) (*db.DB, *stored.Manager) {
	vdb := c.tb.db.WithResolver(s)
	return vdb, c.tb.st.WithDB(vdb)
}

// --- Write path: copy-on-write commits ---

// shadow clones each named table that exists in the live catalog
// (catalog.ShadowTable), so the update about to run mutates fresh
// copies while every pinned snapshot keeps reading the originals. It
// returns the time spent copying — the writer-stall cost the snapshot
// telemetry reports. A failed copy aborts the commit: the catalog is
// still consistent (fully-copied tables are content-identical) but the
// update must not run on a half-shadowed footprint.
func (c *ConcurrentTestbed) shadow(tables []string) (time.Duration, error) {
	start := time.Now()
	cat := c.tb.db.Catalog()
	for _, name := range tables {
		if cat.Table(name) == nil {
			continue
		}
		if _, err := cat.ShadowTable(name); err != nil {
			return time.Since(start), fmt.Errorf("dkbms: copy-on-write of %s: %w", name, err)
		}
	}
	return time.Since(start), nil
}

// publish installs the successor snapshot with no invalidation event:
// the plan cache treats the commit as an unknown mutation and drops
// stale memos instead of maintaining them. Failed commit exit paths use
// this — a partially applied update may have moved tables or
// generations in ways the intended event no longer describes.
func (c *ConcurrentTestbed) publish(buildCost time.Duration) {
	c.publishEvent(buildCost, nil)
}

// publishEvent installs the successor snapshot from the live catalog
// state (every non-temp table) and the current generations, then
// reconciles the plan cache against the typed invalidation event:
// memoized answers whose programs read the committed fact deltas are
// maintained in place (below the cost crossover), everything staler is
// dropped. It runs on every commit exit path. Caller holds commitMu.
func (c *ConcurrentTestbed) publishEvent(buildCost time.Duration, ev *matview.Event) {
	cat := c.tb.db.Catalog()
	tables := make(map[string]*catalog.Table)
	for _, name := range cat.Tables() {
		t := cat.Table(name)
		if t == nil || t.Temp {
			continue
		}
		tables[name] = t
	}
	prev := c.snaps.Current()
	s := c.snaps.Publish(tables, c.tb.ruleGen, c.tb.ws, buildCost)
	c.plans.Invalidate(prev, s, ev)
}

// commit runs one write as a copy-on-write commit. It plans the write
// under commitMu, so what the plan read still holds when it applies;
// clones the workspace when rules move; shadows the plan's tables and
// applies; and publishes the event the plan implies. A plan that mutates
// nothing publishes nothing. A failed apply publishes with no event: a
// partial write may have moved tables the planned deltas no longer
// describe.
func (c *ConcurrentTestbed) commit(plan func() (write, error)) (write, error) {
	//dkblint:locksafe single-writer commit protocol: writers serialize on commitMu through copy-and-publish I/O; readers never take it
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if c.closed.Load() {
		return write{}, ErrClosed
	}
	w, err := plan()
	if err != nil || w.apply == nil {
		return w, err
	}
	if w.rules {
		// Pinned snapshots hold the current workspace; mutate a clone.
		c.tb.ws = c.tb.ws.Clone()
		c.tb.ruleGen++
	}
	cost, err := c.shadow(w.tables)
	if err == nil {
		err = w.apply()
	}
	if err != nil {
		c.publish(cost)
		return w, err
	}
	ev := &matview.Event{Kind: matview.EventCommit, Deltas: w.deltas}
	if w.rules {
		ev = &matview.Event{Kind: matview.EventRuleGen}
	}
	c.publishEvent(cost, ev)
	return w, nil
}

// Load enters a Horn-clause program as one commit: the fact relations
// it appends to are copied, rules go to a fresh workspace clone, and
// the result is published as the next snapshot.
func (c *ConcurrentTestbed) Load(src string) error {
	_, err := c.commit(func() (write, error) { return c.tb.planLoad(src) })
	return err
}

// Retract deletes matching facts as one commit. A retract that matches
// nothing copies and publishes nothing, so memoized answers survive it.
func (c *ConcurrentTestbed) Retract(pattern dlog.Atom) (int, error) {
	return retracted(c.commit(func() (write, error) { return c.tb.planRetract(pattern) }))
}

// RetractSrc is Retract for a source-syntax pattern.
func (c *ConcurrentTestbed) RetractSrc(src string) (int, error) {
	pattern, err := parseRetract(src)
	if err != nil {
		return 0, err
	}
	return c.Retract(pattern)
}

// Update commits workspace rules to the stored D/KB as one commit: the
// rule-storage relations are copied, the workspace is cloned (Update
// clears it), and the result is published as the next snapshot.
func (c *ConcurrentTestbed) Update() (stored.UpdateStats, error) {
	var st stored.UpdateStats
	_, err := c.commit(func() (write, error) { return c.tb.planUpdate(&st) })
	return st, err
}

// --- Read path: pinned-snapshot queries ---

// Query evaluates a query against a pinned snapshot, concurrently with
// other queries and with writers, consulting the shared plan cache
// first: a repeat whose base tables are unchanged serves the memoized
// answer; a change to a table the program reads keeps the compiled
// program but re-evaluates; a rule change recompiles from scratch.
func (c *ConcurrentTestbed) Query(src string, opts *QueryOptions) (*QueryResult, error) {
	return c.QueryContext(context.Background(), src, opts)
}

// QueryContext is Query under a context: cancellation (or deadline
// expiry) is checked between compilation and evaluation and at every
// LFP iteration boundary, aborting the query with an error wrapping
// ctx.Err(), so a long recursive evaluation stops within one iteration
// of the cancel. Traced queries
// (opts.Trace) share compiled plans with untraced ones but bypass the
// memoized-answer path in both directions, so a returned trace always
// describes an evaluation that actually ran.
func (c *ConcurrentTestbed) QueryContext(ctx context.Context, src string, opts *QueryOptions) (*QueryResult, error) {
	if opts == nil {
		opts = &QueryOptions{}
	}
	return c.read(ctx, newPlanKey(src, opts), opts.Trace, opts.QueryID)
}

// read is the read path behind QueryContext: it pins a snapshot, takes
// the query's program (and a current memoized answer, if there is one)
// from the plan cache, and otherwise evaluates and publishes the answer
// for the next reader. qid 0 mints a query ID.
func (c *ConcurrentTestbed) read(ctx context.Context, key planKey, trace bool, qid uint64) (*QueryResult, error) {
	if qid == 0 {
		qid = obs.NewQueryID()
	}
	s, err := c.acquire()
	if err != nil {
		return nil, err
	}
	defer s.Release()
	var tr *obs.Trace
	if trace {
		tr = obs.NewTrace("query")
		tr.Root().SetInt("snapshot_gen", int64(s.Gen))
		tr.Root().SetInt("query_id", int64(qid))
	}
	compiled, memo, status, err := c.program(s, key, tr)
	if err != nil {
		return nil, err
	}
	if memo != nil {
		if !trace {
			out := shareResult(memo)
			out.Cache, out.Snapshot, out.QueryID = status, s.Gen, qid
			return out, nil
		}
		status = "plan" // a traced run re-evaluates the current answer
	}
	// An untraced answer keeps its evaluation's derived relations: the
	// view layer refreshes them (and the memo) through commits. Traced
	// runs never publish answers, so they keep nothing.
	vdb, _ := c.view(s)
	res, rres, err := c.tb.evaluate(ctx, vdb, compiled, &key.opts, tr, !trace)
	if err != nil {
		return nil, err
	}
	res.Snapshot = s.Gen
	if trace {
		c.plans.store(key, s, compiled, nil, nil)
	} else {
		tables, created := rres.Detach()
		c.plans.store(key, s, compiled, res, matview.New(compiled.Program, tables, created))
	}
	// The stored answer is query-neutral; the caller's copy carries the ID.
	out := shareResult(res)
	out.Cache, out.QueryID = status, qid
	return out, nil
}

// program returns the evaluation program for key as seen from the
// pinned snapshot — the plan cache's, or on a miss a fresh compilation,
// the only place a served query's text is parsed and compiled — with
// the memoized answer when one is current, and the plan-cache outcome
// QueryResult.Cache reports. A fresh compilation is not stored: read
// stores it with its answer.
func (c *ConcurrentTestbed) program(s *snapshot.Snapshot, key planKey, tr *obs.Trace) (*core.Compiled, *QueryResult, string, error) {
	compiled, memo, maintained := c.plans.lookup(key, s)
	switch {
	case memo != nil && maintained:
		return compiled, memo, "maintained", nil
	case memo != nil:
		return compiled, memo, "result", nil
	case compiled != nil:
		return compiled, nil, "plan", nil
	}
	q, err := dlog.ParseQuery(key.src)
	if err != nil {
		return nil, nil, "", parseErr(err)
	}
	vdb, vst := c.view(s)
	compiled, err = c.tb.compile(s.WS(), vdb, vst, q, &key.opts, tr)
	return compiled, nil, "miss", err
}

// shareResult returns a caller-private view of a cached result: the
// struct and row slice are copied so callers may append to or reorder
// Rows, while the tuples themselves (treated as immutable everywhere)
// stay shared.
func shareResult(res *QueryResult) *QueryResult {
	out := *res
	out.Rows = append([]rel.Tuple(nil), res.Rows...)
	return &out
}

// --- Telemetry ---

// PlanStats snapshots the shared plan cache's counters.
func (c *ConcurrentTestbed) PlanStats() PlanCacheStats {
	return c.plans.snapshot()
}

// SnapshotStats snapshots the MVCC store's telemetry: published
// generation, active readers, retired snapshots, version reclamation
// and writer-stall accounting.
func (c *ConcurrentTestbed) SnapshotStats() snapshot.Stats {
	return c.snaps.Stats()
}

// PagerStats snapshots the underlying buffer pool's counters,
// aggregated across its shards.
func (c *ConcurrentTestbed) PagerStats() storage.PagerStats {
	return c.tb.db.PagerStats()
}

// EngineMetrics snapshots the engine floor as registry metrics: a row
// gauge and heap-traffic counters per table, shape and search counters
// per index, and the buffer-pool counters per shard. It reads the
// pinned snapshot's frozen table versions, so the non-atomic structural
// fields (index height, key counts) read cleanly while writers commit.
// The server registers this as a metrics-registry collector; the set of
// names follows the published snapshot as tables are created and
// dropped.
func (c *ConcurrentTestbed) EngineMetrics() []obs.Metric {
	s, err := c.acquire()
	if err != nil {
		return nil
	}
	defer s.Release()
	var out []obs.Metric
	for _, name := range s.Tables() {
		t := s.Version(name).Table
		hs := t.Heap.Stats()
		pre := "table." + name + "."
		out = append(out,
			obs.Metric{Name: pre + "rows", Kind: "gauge", Value: int64(t.Rows())},
			obs.Metric{Name: pre + "heap_reads", Kind: "counter", Value: hs.Reads},
			obs.Metric{Name: pre + "heap_inserts", Kind: "counter", Value: hs.Inserts},
			obs.Metric{Name: pre + "heap_deletes", Kind: "counter", Value: hs.Deletes},
			obs.Metric{Name: pre + "heap_scans", Kind: "counter", Value: hs.Scans},
			obs.Metric{Name: pre + "heap_pages_scanned", Kind: "counter", Value: hs.PagesScanned},
			obs.Metric{Name: pre + "heap_recs_scanned", Kind: "counter", Value: hs.RecsScanned},
		)
		for _, ix := range t.Indexes {
			ts := ix.Stats()
			ipre := "index." + ix.Name + "."
			out = append(out,
				obs.Metric{Name: ipre + "height", Kind: "gauge", Value: ts.Height},
				obs.Metric{Name: ipre + "entries", Kind: "gauge", Value: ts.Entries},
				obs.Metric{Name: ipre + "searches", Kind: "counter", Value: ts.Searches},
				obs.Metric{Name: ipre + "depth_total", Kind: "counter", Value: ts.DepthTotal},
				obs.Metric{Name: ipre + "splits", Kind: "counter", Value: ts.Splits},
			)
		}
	}
	for i, st := range c.tb.db.PagerShardStats() {
		pre := fmt.Sprintf("pool.shard.%02d.", i)
		out = append(out,
			obs.Metric{Name: pre + "hits", Kind: "counter", Value: st.Hits},
			obs.Metric{Name: pre + "misses", Kind: "counter", Value: st.Misses},
			obs.Metric{Name: pre + "evictions", Kind: "counter", Value: st.Evictions},
			obs.Metric{Name: pre + "writes", Kind: "counter", Value: st.Writes},
		)
	}
	return out
}

// Generation returns the rule-base generation of the published
// snapshot. Programs compiled at an older generation recompile on their
// next run; the server reports it so clients can correlate results with
// D/KB versions.
func (c *ConcurrentTestbed) Generation() uint64 {
	return c.snaps.Current().RuleGen
}

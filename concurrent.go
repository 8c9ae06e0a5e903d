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
	"dkbms/internal/obs"
	"dkbms/internal/rel"
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
// use the wrapped testbed directly afterwards: a direct mutation
// bypasses snapshot publication and the plan cache.
func NewConcurrent(tb *Testbed) *ConcurrentTestbed {
	c := &ConcurrentTestbed{
		tb:    tb,
		snaps: snapshot.NewStore(BaseTableName("")),
		plans: newPlanCache(),
	}
	c.publish(0) // the initial snapshot: the testbed state as wrapped
	return c
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

// publish installs the successor snapshot from the live catalog state
// (every non-temp table) and the current generations, then drops the
// plan cache's stale programs and memos. It runs on every commit exit
// path, failed ones included. Caller holds commitMu.
func (c *ConcurrentTestbed) publish(buildCost time.Duration) {
	cat := c.tb.db.Catalog()
	tables := make(map[string]*catalog.Table)
	for _, name := range cat.Tables() {
		t := cat.Table(name)
		if t == nil || t.Temp {
			continue
		}
		tables[name] = t
	}
	c.plans.Invalidate(c.snaps.Publish(tables, c.tb.ruleGen, c.tb.ws, buildCost))
}

// commit runs one write as a copy-on-write commit. It plans the write
// under commitMu, so what the plan read still holds when it applies;
// clones the workspace when rules move; shadows the plan's tables and
// applies; and publishes. A plan that mutates nothing publishes
// nothing; a failed apply still publishes, since a partial write may
// have moved tables.
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
	c.publish(cost)
	return w, err
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
	return c.read(ctx, newPlanKey(src, opts), opts.Trace, opts.QueryID, false)
}

// QueryShared is QueryContext for a caller that only reads the answer,
// as a server session encoding it does: the result's Rows are the
// memoized answer's own slice, shared with every other reader, where
// QueryContext hands out a copy. The caller must not modify Rows or
// its tuples.
func (c *ConcurrentTestbed) QueryShared(ctx context.Context, src string, opts *QueryOptions) (*QueryResult, error) {
	if opts == nil {
		opts = &QueryOptions{}
	}
	return c.read(ctx, newPlanKey(src, opts), opts.Trace, opts.QueryID, true)
}

// read is the read path behind QueryContext: it pins a snapshot, takes
// the query's program (and a current memoized answer, if there is one)
// from the plan cache, and otherwise evaluates and publishes the answer
// for the next reader. qid 0 mints a query ID; shared is as in
// shareResult.
func (c *ConcurrentTestbed) read(ctx context.Context, key planKey, trace bool, qid uint64, shared bool) (*QueryResult, error) {
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
	compiled, memo, status := c.plans.lookup(key, s)
	if compiled == nil {
		if compiled, err = c.compile(s, key, tr); err != nil {
			return nil, err
		}
	}
	if memo != nil {
		if !trace {
			out := shareResult(memo, shared)
			out.Cache, out.Snapshot, out.QueryID = status, s.Gen, qid
			return out, nil
		}
		status = "plan" // a traced run re-evaluates the current answer
	}
	vdb, _ := c.view(s)
	res, err := c.tb.evaluate(ctx, vdb, compiled, &key.opts, tr)
	if err != nil {
		return nil, err
	}
	res.Snapshot = s.Gen
	if trace {
		// A traced run shares the plan but never publishes its answer.
		c.plans.store(key, s, compiled, nil)
	} else {
		c.plans.store(key, s, compiled, res)
	}
	// The stored answer is query-neutral; the caller's copy carries the ID.
	out := shareResult(res, shared)
	out.Cache, out.QueryID = status, qid
	return out, nil
}

// compile parses and compiles key's query text against the pinned
// snapshot — the only place a served query's text is parsed and
// compiled. The compilation is not stored: read stores it with its
// answer.
func (c *ConcurrentTestbed) compile(s *snapshot.Snapshot, key planKey, tr *obs.Trace) (*core.Compiled, error) {
	q, err := dlog.ParseQuery(key.src)
	if err != nil {
		return nil, parseErr(err)
	}
	vdb, vst := c.view(s)
	return c.tb.compile(s.WS(), vdb, vst, q, &key.opts, tr)
}

// shareResult returns a caller's view of a cached result: the struct is
// copied, so the caller's outcome, snapshot and query ID are its own,
// and so is the row slice, so callers may append to or reorder Rows,
// unless the caller only reads them (shared). The tuples themselves
// (treated as immutable everywhere) stay shared.
func shareResult(res *QueryResult, shared bool) *QueryResult {
	out := *res
	if !shared {
		out.Rows = append([]rel.Tuple(nil), res.Rows...)
	}
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

// PagerStats snapshots the underlying buffer pool's counters.
func (c *ConcurrentTestbed) PagerStats() storage.PagerStats {
	return c.tb.db.PagerStats()
}

// EngineMetrics snapshots the engine floor as registry metrics: a row
// gauge and heap-traffic counters per table, shape, byte and search
// gauges and counters per index, and the temp region's size and free
// pages (pool.temp_pages, which is the temp tables' high-water mark,
// and pool.temp_free_pages).
// A table's and an index's counters run on across the commits that copy
// them and the DELETEs that truncate them. It reads the pinned
// snapshot's frozen table versions, so the non-atomic structural fields
// (index height, key counts, bytes) read cleanly while writers commit.
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
				obs.Metric{Name: ipre + "bytes", Kind: "gauge", Value: ts.Bytes},
				obs.Metric{Name: ipre + "searches", Kind: "counter", Value: ts.Searches},
				obs.Metric{Name: ipre + "depth_total", Kind: "counter", Value: ts.DepthTotal},
				obs.Metric{Name: ipre + "splits", Kind: "counter", Value: ts.Splits},
			)
		}
	}
	pages, free := c.tb.db.TempPages()
	return append(out,
		obs.Metric{Name: "pool.temp_pages", Kind: "gauge", Value: int64(pages)},
		obs.Metric{Name: "pool.temp_free_pages", Kind: "gauge", Value: int64(free)},
	)
}

// Generation returns the rule-base generation of the published
// snapshot. Programs compiled at an older generation recompile on their
// next run; the server reports it so clients can correlate results with
// D/KB versions.
func (c *ConcurrentTestbed) Generation() uint64 {
	return c.snaps.Current().RuleGen
}

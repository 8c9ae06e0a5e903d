package dkbms

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dkbms/internal/core"
	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/exec"
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
//   - Load, Retract and Update serialize on a commit mutex and write
//     the live catalog, which replaces each published table version on
//     its first write by one that shares its pages and index nodes and
//     copies only those it writes (Catalog.Writable);
//     the commit then publishes the successor snapshot atomically.
//     In-flight queries keep reading the versions their snapshot pinned;
//     a replaced version is reclaimed, in commit order, once every
//     snapshot that can reach it has drained;
//   - a query therefore always observes a committed state — entirely
//     before or entirely after any concurrent update, never between.
//
// Query additionally consults a shared plan cache: compiled evaluation
// programs are keyed by (query text, options) and reused across sessions
// while the rule-base generation stands still, and a query's answer is
// memoized with the set of base-table versions it was computed from and
// its read set — so an update invalidates only the answers that read
// what it wrote, and a hot query repeated by many sessions skips the
// whole parse→typecheck→magic→codegen pipeline (and, when what it read
// is unchanged, the LFP evaluation too). Reads are key-scoped where
// the evaluation reads a table only through index probes of full keys
// (a bound query's magic-set or factored closure, say): a commit that
// writes none of the probed keys carries the memo forward. Any other
// read — a scan, a prefix probe — scopes the memo to the whole table.
// A read set costs 2 bytes per distinct probed key (readSet).
//
// The zero value is not usable; wrap an open Testbed with NewConcurrent.
type ConcurrentTestbed struct {
	// commitMu serializes the write path (the write with its table
	// copies, snapshot publication) and Close. The read path never
	// takes it.
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
		snaps: snapshot.NewStore(),
		plans: newPlanCache(),
	}
	c.publish() // the initial snapshot: the testbed state as wrapped
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

// view returns database and stored-manager views of the pinned
// snapshot's table map, by the view rule (db.DB.View): a stored table
// resolves in the map, where absent means absent, and a temp table —
// the run-time library's session-private ones — in the live catalog.
func (c *ConcurrentTestbed) view(s *snapshot.Snapshot) (*db.DB, *stored.Manager) {
	vdb := c.tb.db.View(s.Tables(), nil)
	return vdb, c.tb.st.WithDB(vdb)
}

// --- Write path: copy-on-write commits ---

// publish freezes every stored table version (Catalog.Freeze), so the
// next write to each goes to a new version that shares its pages, and
// installs them as the successor snapshot with the current workspace
// and rule generation; then it drops the plan cache's stale programs
// and memos. It reports what the writes since the last publish cost
// the catalog: the pages and index nodes they wrote, and the writer
// stall of making frozen versions writable. Caller holds commitMu.
func (c *ConcurrentTestbed) publish() {
	cat := c.tb.db.Catalog()
	_, cost := cat.Moved()
	c.tb.published = true
	prev := c.snaps.Current()
	c.plans.Invalidate(prev, c.snaps.Publish(cat, c.tb.ruleGen, c.tb.ws, cost))
}

// commit runs one testbed write under commitMu and publishes if it
// moved the rule generation or the catalog copied or created a table —
// a failed write included, since it may have moved tables. A write
// that changes nothing publishes nothing.
func (c *ConcurrentTestbed) commit(write func() error) error {
	//dkblint:locksafe single-writer commit protocol: writers serialize on commitMu through copy-and-publish I/O; readers never take it
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	gen := c.tb.ruleGen
	err := write()
	if moved, _ := c.tb.db.Catalog().Moved(); moved || c.tb.ruleGen != gen {
		c.publish()
	}
	return err
}

// Load enters a Horn-clause program as one commit: the fact relations
// it appends to are copied, rules go to a fresh workspace clone, and
// the result is published as the next snapshot.
func (c *ConcurrentTestbed) Load(src string) error {
	return c.commit(func() error { return c.tb.Load(src) })
}

// Retract deletes matching facts as one commit. A retract that matches
// nothing copies and publishes nothing, so memoized answers survive it.
func (c *ConcurrentTestbed) Retract(pattern dlog.Atom) (n int, err error) {
	err = c.commit(func() (err error) {
		n, err = c.tb.Retract(pattern)
		return err
	})
	return n, err
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
// rule-storage relations it writes are copied, the workspace is cloned
// (Update clears it), and the result is published as the next snapshot.
func (c *ConcurrentTestbed) Update() (st stored.UpdateStats, err error) {
	err = c.commit(func() (err error) {
		st, err = c.tb.Update()
		return err
	})
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
	a, err := c.read(ctx, newPlanKey(src, opts), opts.Trace, opts.QueryID)
	if err != nil {
		return nil, err
	}
	rows, rest, err := rel.DecodeRows(a.block)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("%d bytes after the row block", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("dkbms: answer block: %w", err)
	}
	a.res.Rows = rows
	return a.res, nil
}

// QueryShared is QueryContext for a caller that only reads the answer
// as a row block, as a server session copying it into a RESULT frame
// does. It returns the block — rel.AppendRows's layout: the column
// types, the row count, each row's stored record behind its length —
// beside a result whose Rows are nil, where QueryContext decodes the
// block into Rows of the caller's own. The block is the plan cache's
// memoized answer itself, shared with every other reader: the caller
// must not modify it.
func (c *ConcurrentTestbed) QueryShared(ctx context.Context, src string, opts *QueryOptions) (*QueryResult, []byte, error) {
	if opts == nil {
		opts = &QueryOptions{}
	}
	a, err := c.read(ctx, newPlanKey(src, opts), opts.Trace, opts.QueryID)
	return a.res, a.block, err
}

// read is the read path behind QueryContext and QueryShared: it pins
// the current snapshot and reads the answer on it (readAt).
func (c *ConcurrentTestbed) read(ctx context.Context, key planKey, trace bool, qid uint64) (memo, error) {
	s, err := c.acquire()
	if err != nil {
		return memo{}, err
	}
	defer s.Release()
	return c.readAt(ctx, s, key, trace, qid)
}

// readAt answers key on the pinned snapshot s: it takes the query's
// program (and a current memoized answer, if there is one) from the
// plan cache, and otherwise evaluates and publishes the answer for the
// next reader, with the read set the evaluation recorded. Every
// evaluation reads its answer as a row block (the memo's form). The
// caller's answer is the stored one with the result struct copied, so
// its outcome, snapshot and query ID are its own; the block stays
// shared. qid 0 mints a query ID.
func (c *ConcurrentTestbed) readAt(ctx context.Context, s *snapshot.Snapshot, key planKey, trace bool, qid uint64) (memo, error) {
	if qid == 0 {
		qid = obs.NewQueryID()
	}
	var tr *obs.Trace
	var err error
	if trace {
		tr = obs.NewTrace("query")
		tr.Root().SetInt("snapshot_gen", int64(s.Gen))
		tr.Root().SetInt("query_id", int64(qid))
	}
	compiled, m, status := c.plans.lookup(key, s)
	if compiled == nil {
		if compiled, err = c.compile(s, key, tr); err != nil {
			return memo{}, err
		}
	}
	if m.res != nil {
		if !trace {
			out := *m.res
			out.Cache, out.Snapshot, out.QueryID = status, s.Gen, qid
			return memo{res: &out, block: m.block}, nil
		}
		status = "plan" // a traced run re-evaluates the current answer
	}
	// An untraced run records what it reads of the snapshot's tables:
	// the memo's read set.
	var reads *exec.Reads
	if !trace {
		reads = recorders.Get().(*exec.Reads)
		defer func() {
			reads.Reset()
			recorders.Put(reads)
		}()
	}
	res, block, err := c.tb.evaluate(ctx, c.tb.db.View(s.Tables(), reads), compiled, &key.opts, tr, true)
	if err != nil {
		return memo{}, err
	}
	res.Snapshot = s.Gen
	if trace {
		// A traced run shares the plan but never publishes its answer.
		c.plans.store(key, s, compiled, memo{}, readSet{})
	} else {
		c.plans.store(key, s, compiled, memo{res: res, block: block}, newReadSet(reads))
	}
	// The stored answer is query-neutral; the caller's copy carries the ID.
	out := *res
	out.Cache, out.QueryID = status, qid
	return memo{res: &out, block: block}, nil
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
	for name, t := range s.Tables() {
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

// Package db is the embedded relational DBMS the Knowledge Manager
// targets — the testbed's stand-in for the paper's commercial relational
// database with an embedded-SQL interface. It ties together the SQL
// front-end, the planner, the executor and the storage engine behind a
// small Exec/Query API.
package db

import (
	"context"
	"fmt"
	"sync/atomic"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/obs"
	"dkbms/internal/plan"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
	"dkbms/internal/storage"
)

// TableResolver resolves base-table names to pinned physical table
// versions. A snapshot implements it; a DB view carrying one binds
// every statement it executes to that snapshot's state.
//
// ResolveTable reports the table (possibly nil) and whether the
// resolver is authoritative for the name. Non-authoritative names fall
// through to the live catalog — that is how session-private temp
// tables, which are created during evaluation and are never
// snapshotted, keep resolving.
type TableResolver interface {
	ResolveTable(name string) (t *catalog.Table, authoritative bool)
}

// DB is one open database, or a resolver-bound view of one (see
// WithResolver). Views share the pager, catalog and statement counters
// with their parent; only name resolution differs.
type DB struct {
	pager *storage.Pager
	cat   *catalog.Catalog
	res   TableResolver

	// stats counts statement traffic for the measurement harness, and
	// stmts keeps the statements prepared on the database (Prepare).
	// They are pointers so resolver views share them.
	stats *counters
	stmts *stmtCache
}

// counters are the live statement counters behind Stats. Read-only
// statements may run concurrently (the run-time library's parallel rule
// evaluation and the server's concurrent sessions do), so each is an
// atomic.
type counters struct {
	selects, inserts, insertedRows, deletes, ddl atomic.Int64
	builds, reuses, parses                       atomic.Int64
}

// Stats are cumulative statement counters, as read by
// DB.StatsSnapshot. A Stats is a plain copy: the live counters are
// unexported, so a snapshot is the only way to read them.
type Stats struct {
	Selects int64
	Inserts int64
	// InsertedRows counts rows written by INSERT statements.
	InsertedRows int64
	Deletes      int64
	DDL          int64
	// Builds counts executions of a SELECT, alone or under an INSERT,
	// whose operator tree was constructed; Reuses those of a prepared
	// statement that re-bound the tree its last execution kept
	// (plan.Prepared.Acquire).
	Builds int64
	Reuses int64
	// Parses counts statement texts parsed: every Exec and Query, and
	// every Prepare whose plan was not cached.
	Parses int64
}

// StatsSnapshot returns the statement counters, safe to call while
// statements execute on other goroutines.
func (d *DB) StatsSnapshot() Stats {
	c := d.stats
	return Stats{
		Selects:      c.selects.Load(),
		Inserts:      c.inserts.Load(),
		InsertedRows: c.insertedRows.Load(),
		Deletes:      c.deletes.Load(),
		DDL:          c.ddl.Load(),
		Builds:       c.builds.Load(),
		Reuses:       c.reuses.Load(),
		Parses:       c.parses.Load(),
	}
}

// WithResolver returns a view of the database whose base-table name
// resolution goes through r first. The view shares everything else —
// pager, catalog, counters, prepared statements — with the receiver;
// it is how a query evaluates against a pinned snapshot while the live
// catalog moves.
func (d *DB) WithResolver(r TableResolver) *DB {
	return &DB{pager: d.pager, cat: d.cat, res: r, stats: d.stats, stmts: d.stmts}
}

// Table resolves a table name: through the view's resolver when it is
// authoritative for the name, otherwise in the live catalog. This is
// the single binding point between statement execution and physical
// tables — the planner, DML executors and row-count probes all pass
// through it.
func (d *DB) Table(name string) *catalog.Table {
	if d.res != nil {
		if t, ok := d.res.ResolveTable(name); ok {
			return t
		}
	}
	return d.cat.Table(name)
}

// Open opens (creating if needed) a file-backed database with the
// default buffer-pool size.
func Open(path string) (*DB, error) { return OpenWithPool(path, 0) }

// OpenWithPool opens a file-backed database with an explicit buffer
// pool capacity in pages (0 = default). Small pools force eviction
// traffic; tests and memory-constrained deployments use this.
func OpenWithPool(path string, poolPages int) (*DB, error) {
	pager, err := storage.OpenPager(path, poolPages)
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Open(pager)
	if err != nil {
		pager.Close()
		return nil, err
	}
	return &DB{pager: pager, cat: cat, stats: new(counters), stmts: newStmtCache()}, nil
}

// OpenMemory opens a fresh in-memory database.
func OpenMemory() *DB {
	pager := storage.NewMemPager(0)
	cat, err := catalog.Open(pager)
	if err != nil {
		// A fresh memory pager cannot fail to initialize; treat as a
		// programming error.
		panic(fmt.Sprintf("db: init memory database: %v", err))
	}
	return &DB{pager: pager, cat: cat, stats: new(counters), stmts: newStmtCache()}
}

// Close flushes and closes the database.
func (d *DB) Close() error { return d.pager.Close() }

// Catalog exposes the schema manager (the KM's stored-D/KB manager uses
// it for direct bulk loads that bypass SQL parsing).
func (d *DB) Catalog() *catalog.Catalog { return d.cat }

// Rows is a fully-materialized query result. The tuples own their
// memory (rel.OwnRows): a caller may keep any of them for as long as it
// likes without keeping the statement's blocks and slabs alive.
type Rows struct {
	Schema *rel.Schema
	Tuples []rel.Tuple
}

// Exec parses and executes a statement that returns no rows (DDL, DML).
// Executing a SELECT through Exec is an error; use Query.
func (d *DB) Exec(stmt string) error { return d.ExecTraced(stmt, nil) }

// ExecTraced is Exec with optional operator-level tracing: when sp is
// non-nil, an INSERT ... SELECT or DELETE ... WHERE statement records
// its operator tree (rows emitted per scan/join/filter) as child spans
// of sp. A nil sp costs one nil check over Exec.
func (d *DB) ExecTraced(stmt string, sp *obs.Span) error {
	return d.ExecTracedCtx(context.Background(), stmt, sp)
}

// ExecTracedCtx is ExecTraced with statement cancellation: an
// INSERT ... SELECT observes ctx between source tuples and aborts with
// ctx.Err() when it is cancelled. Other statement forms do bounded work
// and ignore ctx.
func (d *DB) ExecTracedCtx(ctx context.Context, stmt string, sp *obs.Span) error {
	st, err := d.parse(stmt)
	if err != nil {
		return err
	}
	switch s := st.(type) {
	case *sql.Select:
		return fmt.Errorf("db: Exec called with a SELECT; use Query")
	case sql.CreateTable:
		return d.execCreateTable(s)
	case sql.DropTable:
		return d.execDropTable(s)
	case sql.CreateIndex:
		return d.execCreateIndex(s)
	case sql.DropIndex:
		d.stats.ddl.Add(1)
		return d.cat.DropIndex(s.Name)
	case sql.Insert:
		return d.execInsert(ctx, s, sp)
	case sql.Delete:
		return d.execDelete(s, sp)
	default:
		return fmt.Errorf("db: unhandled statement %T", st)
	}
}

// Query parses, plans and fully evaluates a SELECT.
func (d *DB) Query(stmt string) (*Rows, error) { return d.QueryTraced(stmt, nil) }

// QueryTraced is Query with optional operator-level tracing: when sp is
// non-nil the SELECT's operator tree (rows emitted per operator) is
// recorded as child spans of sp. A nil sp costs one nil check.
func (d *DB) QueryTraced(stmt string, sp *obs.Span) (*Rows, error) {
	return d.QueryTracedCtx(context.Background(), stmt, sp)
}

// QueryTracedCtx is QueryTraced with statement cancellation: the drain
// observes ctx between result tuples and aborts with ctx.Err() when it
// is cancelled, so a long scan or join stops mid-statement instead of
// running to completion.
func (d *DB) QueryTracedCtx(ctx context.Context, stmt string, sp *obs.Span) (*Rows, error) {
	st, err := d.parse(stmt)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("db: Query called with a non-SELECT %T; use Exec", st)
	}
	p, err := plan.Prepare(d, sel, nil)
	if err != nil {
		return nil, err
	}
	return d.runSelect(ctx, p, nil, nil, sp, false)
}

// parse parses one statement text, counted.
func (d *DB) parse(stmt string) (sql.Statement, error) {
	d.stats.parses.Add(1)
	return sql.Parse(stmt)
}

// QueryCount evaluates a SELECT COUNT(*) (or any single-int-row query)
// and returns the count.
func (d *DB) QueryCount(stmt string) (int64, error) {
	rows, err := d.Query(stmt)
	if err != nil {
		return 0, err
	}
	return singleInt(rows)
}

func singleInt(rows *Rows) (int64, error) {
	if len(rows.Tuples) != 1 || len(rows.Tuples[0]) != 1 || rows.Tuples[0][0].Kind != rel.TypeInt {
		return 0, fmt.Errorf("db: QueryCount: result is not a single integer")
	}
	return rows.Tuples[0][0].Int, nil
}

// InsertTuples appends tuples to a table directly, bypassing SQL text.
// The run-time library's evaluation loops install thousands of derived
// tuples per iteration; rendering and parsing one INSERT statement per
// tuple is pure interface overhead (the paper's §5 complaint about its
// SQL-only DBMS interface), so the bulk path goes straight to the
// catalog's index-maintaining insert. Counted as a single INSERT
// statement plus one row per tuple, like INSERT ... SELECT.
func (d *DB) InsertTuples(table string, tuples []rel.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	d.stats.inserts.Add(1)
	t := d.Table(table)
	if t == nil {
		return fmt.Errorf("db: no table %s", table)
	}
	for _, tu := range tuples {
		if _, err := t.Insert(tu); err != nil {
			return err
		}
		d.stats.insertedRows.Add(1)
	}
	return nil
}

// operators plans one execution of p. A prepared statement's untraced
// execution (reuse) takes the tree its last execution kept, re-bound
// when the planner decides as it did then; hand t back with p.Release
// after the drain. A traced execution, whose tree Instrument rewrites,
// and an ad-hoc statement, which runs once, construct theirs, and t is
// nil.
func (d *DB) operators(p *plan.Prepared, args []*catalog.Table, vals []rel.Value, sp *obs.Span, reuse bool) (op exec.Operator, t *plan.Tree, err error) {
	if !reuse || sp != nil {
		if op, err = p.Build(d, args, vals); err == nil {
			d.stats.builds.Add(1)
		}
		return op, nil, err
	}
	t, reused, err := p.Acquire(d, args, vals)
	if err != nil {
		return nil, nil, err
	}
	if reused {
		d.stats.reuses.Add(1)
	} else {
		d.stats.builds.Add(1)
	}
	return t.Root, t, nil
}

// runSelect plans and drains one execution of a prepared SELECT; reuse
// is as in operators.
func (d *DB) runSelect(ctx context.Context, p *plan.Prepared, args []*catalog.Table, vals []rel.Value, sp *obs.Span, reuse bool) (*Rows, error) {
	d.stats.selects.Add(1)
	op, t, err := d.operators(p, args, vals, sp, reuse)
	if err != nil {
		return nil, err
	}
	defer p.Release(t)
	op, flush := exec.Instrument(op, sp)
	defer flush()
	tuples, err := exec.CollectOwned(ctx, op)
	if err != nil {
		return nil, err
	}
	return &Rows{Schema: op.Schema(), Tuples: tuples}, nil
}

func (d *DB) execCreateTable(s sql.CreateTable) error {
	d.stats.ddl.Add(1)
	schema, err := rel.NewSchema(s.Columns...)
	if err != nil {
		return err
	}
	_, err = d.cat.CreateTable(s.Name, schema, s.Temp)
	return err
}

// CreateTempTable is CREATE TEMP TABLE without the text: the name is
// taken as written and the schema as given. Counted as one DDL
// statement, as InsertTuples is counted as an INSERT.
func (d *DB) CreateTempTable(name string, schema *rel.Schema) error {
	d.stats.ddl.Add(1)
	_, err := d.cat.CreateTable(name, schema, true)
	return err
}

// DropTable is DROP TABLE without the text, counted as one DDL
// statement.
func (d *DB) DropTable(name string) error {
	d.stats.ddl.Add(1)
	return d.cat.DropTable(name)
}

func (d *DB) execDropTable(s sql.DropTable) error {
	d.stats.ddl.Add(1)
	if d.cat.Table(s.Name) == nil && s.IfExists {
		return nil
	}
	return d.cat.DropTable(s.Name)
}

func (d *DB) execCreateIndex(s sql.CreateIndex) error {
	d.stats.ddl.Add(1)
	_, err := d.cat.CreateIndex(s.Name, s.Table, s.Columns, false)
	return err
}

func (d *DB) execInsert(ctx context.Context, s sql.Insert, sp *obs.Span) error {
	if s.Param != 0 {
		return fmt.Errorf("db: INSERT INTO $%d: table parameters need Prepare", s.Param)
	}
	d.stats.inserts.Add(1)
	t := d.Table(s.Table)
	if t == nil {
		return fmt.Errorf("db: no table %s", s.Table)
	}
	if s.Query != nil {
		p, err := plan.Prepare(d, s.Query, nil)
		if err != nil {
			return err
		}
		return d.insertSelect(ctx, t, p, nil, nil, sp, false)
	}
	for _, row := range s.Rows {
		tu := make(rel.Tuple, len(row))
		for i, e := range row {
			lit, ok := e.(sql.Literal)
			if !ok {
				return fmt.Errorf("db: non-literal in VALUES row")
			}
			tu[i] = lit.Value
		}
		if _, err := t.Insert(tu); err != nil {
			return err
		}
		d.stats.insertedRows.Add(1)
	}
	return nil
}

// insertSelect is the body of INSERT INTO t SELECT ...: one execution
// of the prepared SELECT, written to t. Into an index-less table a
// source that has stored records — a table scan, a deduplicating set
// operation — hands them over, and each goes to the heap as it is;
// any other source is materialized and its tuples encoded. reuse is as
// in operators.
func (d *DB) insertSelect(ctx context.Context, t *catalog.Table, p *plan.Prepared, args []*catalog.Table, vals []rel.Value, sp *obs.Span, reuse bool) error {
	op, tree, err := d.operators(p, args, vals, sp, reuse)
	if err != nil {
		return err
	}
	defer p.Release(tree)
	if !op.Schema().TypesCompatible(t.Schema) {
		return fmt.Errorf("db: INSERT INTO %s: select schema %v incompatible with table schema %v",
			t.Name, op.Schema(), t.Schema)
	}
	scan, _ := op.(*exec.SeqScan)
	op, flush := exec.Instrument(op, sp)
	defer flush()
	if len(t.Indexes) == 0 {
		if ok, err := d.insertRecords(ctx, t, op, scan); ok || err != nil {
			return err
		}
	}
	// Materialize before writing so self-referential inserts
	// (INSERT INTO t SELECT ... FROM t) read a stable snapshot.
	tuples, err := exec.CollectCtx(ctx, op)
	if err != nil {
		return err
	}
	for _, tu := range tuples {
		if _, err := t.Insert(tu); err != nil {
			return err
		}
		d.stats.insertedRows.Add(1)
	}
	return nil
}

// insertRecords writes the stored records of op (see exec.RecordSource;
// the types were checked by the caller) into the index-less table t; ok
// is false, with nothing read, when op has none. A set operation has
// its whole result in hand before the first record arrives; scan, when
// op is a bare scan of t itself, would read the pages being written, so
// its records are copied out first. ctx is observed up to the first
// write: a cancelled INSERT writes nothing.
func (d *DB) insertRecords(ctx context.Context, t *catalog.Table, op exec.Operator, scan *exec.SeqScan) (ok bool, err error) {
	if scan == nil || scan.Table.Heap != t.Heap {
		before := t.Rows()
		return exec.ScanRecords(op, func(rec []byte) error {
			if t.Rows() == before {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			return d.insertRecord(t, rec)
		})
	}
	n := scan.Table.Rows()
	ends := make([]int, 0, n)
	var recs []byte // the records back to back
	if _, err := exec.ScanRecords(op, func(rec []byte) error {
		if recs == nil {
			// Records of one table are about one length: the first,
			// with an eighth to spare, sizes the buffer for all.
			recs = make([]byte, 0, n*(len(rec)+len(rec)/8+1))
		}
		recs = append(recs, rec...)
		ends = append(ends, len(recs))
		return ctx.Err()
	}); err != nil {
		return true, err
	}
	start := 0
	for _, end := range ends {
		if err := d.insertRecord(t, recs[start:end]); err != nil {
			return true, err
		}
		start = end
	}
	return true, nil
}

// insertRecord writes one record into the index-less table t.
func (d *DB) insertRecord(t *catalog.Table, rec []byte) error {
	if err := t.InsertRecord(rec); err != nil {
		return err
	}
	d.stats.insertedRows.Add(1)
	return nil
}

func (d *DB) execDelete(s sql.Delete, sp *obs.Span) error {
	d.stats.deletes.Add(1)
	t := d.Table(s.Table)
	if t == nil {
		return fmt.Errorf("db: no table %s", s.Table)
	}
	if s.Where == nil {
		return t.Truncate()
	}
	op, err := plan.BuildDelete(d, s)
	if err != nil {
		return err
	}
	op, flush := exec.Instrument(op, sp)
	defer flush()
	// Collect the victims, then delete: the scan may be iterating a
	// posting list that DeleteRID edits.
	type victim struct {
		rid storage.RID
		tu  rel.Tuple
	}
	var victims []victim
	err = exec.ScanRows(op, func(rid storage.RID, tu rel.Tuple) error {
		victims = append(victims, victim{rid, tu})
		return nil
	})
	if err != nil {
		return err
	}
	for _, v := range victims {
		if err := t.DeleteRID(v.rid, v.tu); err != nil {
			return err
		}
	}
	return nil
}

// TableRows returns the maintained row count of a table (0 if absent).
func (d *DB) TableRows(name string) int {
	t := d.Table(name)
	if t == nil {
		return 0
	}
	return t.Rows()
}

// HasTable reports whether the table exists.
func (d *DB) HasTable(name string) bool { return d.Table(name) != nil }

// Flush persists dirty pages (no-op cost for memory databases).
func (d *DB) Flush() error { return d.pager.Flush() }

// PagerStats returns a snapshot of the buffer-pool counters.
func (d *DB) PagerStats() storage.PagerStats { return d.pager.Stats() }

// PagerShardStats returns the buffer-pool counters per stripe.
func (d *DB) PagerShardStats() []storage.PagerStats { return d.pager.ShardStats() }

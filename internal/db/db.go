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
	// reads records what the view's statements read of the resolver's
	// table versions (Recording); nil records nothing.
	reads *exec.Reads

	// stats counts statement traffic for the measurement harness, and
	// stmts keeps the statements prepared on the database (Prepare).
	// They are pointers so resolver views share them.
	stats *counters
	stmts *stmtCache

	// victims is the database's DELETE scratch (deleteRows): deletes
	// run one at a time, under the writer, and a view has its own.
	victims victims
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

// Recording is WithResolver for a view whose statements also record, in
// reads, what they read of the published table versions r resolves to
// (exec.Reads): the plan cache's read set of the answer they compute.
func (d *DB) Recording(r TableResolver, reads *exec.Reads) *DB {
	v := d.WithResolver(r)
	v.reads = reads
	return v
}

// Reads returns the view's read recorder, nil when it records nothing;
// the planner binds it to the operators over published table versions
// (plan.RecordingSource).
func (d *DB) Reads() *exec.Reads { return d.reads }

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

// TableBytes is Table for a name held in bytes — one built on the
// caller's stack — which it does not keep. The root database looks it
// up without a string; a view's resolver takes one.
func (d *DB) TableBytes(name []byte) *catalog.Table {
	if d.res != nil {
		return d.Table(string(name))
	}
	return d.cat.TableBytes(name)
}

// writable resolves the target of a write as Table does, except that
// the live catalog resolves it with Catalog.Writable, which replaces a
// frozen version on its first write by one that shares its pages. A
// version a resolver pins stays as it is: frozen, its mutators refuse
// the write.
func (d *DB) writable(name string) (*catalog.Table, error) {
	if d.res != nil {
		if t, ok := d.res.ResolveTable(name); ok {
			return t, nil
		}
	}
	return d.cat.Writable(name)
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
	return newDB(pager, cat), nil
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
	return newDB(pager, cat)
}

// newDB returns the root database over pager and cat.
func newDB(pager *storage.Pager, cat *catalog.Catalog) *DB {
	d := &DB{pager: pager, cat: cat, stats: new(counters)}
	d.stmts = newStmtCache(d)
	return d
}

// Close flushes and closes the database.
func (d *DB) Close() error { return d.pager.Close() }

// Catalog exposes the schema manager (the KM's stored-D/KB manager uses
// it for direct bulk loads that bypass SQL parsing).
func (d *DB) Catalog() *catalog.Catalog { return d.cat }

// Rows is a fully-materialized query result, decoded once into a block
// of its own (exec.CollectOwned): a caller may keep any of its tuples
// for as long as it likes without keeping the statement's pages or
// buffers alive.
type Rows struct {
	Schema *rel.Schema
	Tuples []rel.Tuple
}

// Exec parses and executes a statement that returns no rows (DDL, DML).
// Executing a SELECT through Exec is an error; use Query.
func (d *DB) Exec(stmt string) error { return d.ExecTracedCtx(context.Background(), stmt, nil) }

// ExecTracedCtx is Exec with operator-level tracing and statement
// cancellation. When sp is non-nil, an INSERT ... SELECT or DELETE ...
// WHERE statement records its operator tree (rows emitted per
// scan/join/filter) as child spans of sp; a nil sp costs one nil check.
// An INSERT ... SELECT observes ctx between source tuples and aborts
// with ctx.Err() when it is cancelled. Other statement forms do bounded
// work and ignore ctx.
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
func (d *DB) Query(stmt string) (*Rows, error) {
	return d.QueryTracedCtx(context.Background(), stmt, nil)
}

// QueryTracedCtx is Query with operator-level tracing and statement
// cancellation. When sp is non-nil the SELECT's operator tree (rows
// emitted per operator) is recorded as child spans of sp; a nil sp
// costs one nil check. The drain observes ctx between result tuples
// and aborts with ctx.Err() when it is cancelled, so a long scan or
// join stops mid-statement instead of running to completion.
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
	return d.runSelect(ctx, p, nil, nil, sp)
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
	t, err := d.writable(table)
	if err != nil {
		return err
	}
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

// operators plans one execution of p. An untraced one takes the tree p
// keeps, re-bound when the planner decides as it did the last time —
// an ad-hoc statement's p is new, so its tree is constructed — and t is
// handed back with p.Release after the drain. A traced execution, whose
// tree Instrument rewrites, constructs its own, and t is nil.
func (d *DB) operators(p *plan.Prepared, args []*catalog.Table, vals []rel.Value, sp *obs.Span) (op exec.Operator, t *plan.Tree, err error) {
	if sp != nil {
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

// runSelect plans and drains one execution of a prepared SELECT.
func (d *DB) runSelect(ctx context.Context, p *plan.Prepared, args []*catalog.Table, vals []rel.Value, sp *obs.Span) (*Rows, error) {
	var rows *Rows
	err := d.drainSelect(p, args, vals, sp, func(op exec.Operator) error {
		tuples, err := exec.CollectOwned(ctx, op)
		rows = &Rows{Schema: op.Schema(), Tuples: tuples}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// drainSelect plans one execution of a prepared SELECT, counted as a
// SELECT, and calls drain with its operator tree, instrumented under
// sp.
func (d *DB) drainSelect(p *plan.Prepared, args []*catalog.Table, vals []rel.Value, sp *obs.Span, drain func(exec.Operator) error) error {
	d.stats.selects.Add(1)
	op, t, err := d.operators(p, args, vals, sp)
	if err != nil {
		return err
	}
	defer p.Release(t)
	op, flush := exec.Instrument(op, sp)
	defer flush()
	return drain(op)
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
	t, err := d.writable(s.Table)
	if err != nil {
		return err
	}
	if t == nil {
		return fmt.Errorf("db: no table %s", s.Table)
	}
	if s.Query != nil {
		p, err := plan.Prepare(d, s.Query, nil)
		if err != nil {
			return err
		}
		return d.insertSelect(ctx, t, p, nil, nil, nil, sp)
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
// of the prepared SELECT, its records written to t as they are (an
// index's key is read from the record; nothing is decoded).
//
// The statement reads the state its SELECT starts from, a
// statement-level snapshot: a deduplicating set operation has its whole
// result in hand before the first write, and a bare scan of another
// table reads none of t's pages, so their records go to t as they
// come; any other source's records are collected first (rel.Records),
// since a scan passes records on as it reads them and a
// self-referential INSERT would otherwise read its own writes. ctx is
// observed up to the first write: a cancelled INSERT writes nothing.
// kept, when not nil, is the inserter of p's kept tree, which streams
// an execution on that tree without a closure of its own.
func (d *DB) insertSelect(ctx context.Context, t *catalog.Table, p *plan.Prepared, kept *inserter, args []*catalog.Table, vals []rel.Value, sp *obs.Span) error {
	op, tree, err := d.operators(p, args, vals, sp)
	if err != nil {
		return err
	}
	defer p.Release(tree)
	if !op.Schema().TypesCompatible(t.Schema) {
		return fmt.Errorf("db: INSERT INTO %s: select schema %v incompatible with table schema %v",
			t.Name, op.Schema(), t.Schema)
	}
	scan, _ := op.(*exec.SeqScan)
	set, _ := op.(*exec.SetOpExec)
	stream := set != nil && set.Kind != exec.OpUnionAll || scan != nil && scan.Table.Heap != t.Heap
	op, flush := exec.Instrument(op, sp)
	defer flush()
	if stream {
		w := kept
		if w == nil || !p.Kept(tree) {
			w = new(inserter)
		}
		return w.stream(ctx, d, t, op)
	}
	var recs rel.Records
	if err := op.ScanRecords(func(rec []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return recs.Add(rec)
	}); err != nil {
		return err
	}
	return recs.Each(func(rec []byte) error { return d.insertRecord(t, rec) })
}

// inserter writes the records of an INSERT's pass to its target as
// they come. Its put method is the pass's consumer, made once per
// inserter, so an execution on a kept tree, whose inserter is kept
// beside it, makes no closure.
type inserter struct {
	d      *DB
	ctx    context.Context
	t      *catalog.Table
	before int
	put    func(rec []byte) error
}

// stream runs one pass of op, writing its records into t; ctx is
// observed until the first write.
func (w *inserter) stream(ctx context.Context, d *DB, t *catalog.Table, op exec.Operator) error {
	if w.put == nil {
		w.put = w.write
	}
	w.d, w.ctx, w.t, w.before = d, ctx, t, t.Rows()
	err := op.ScanRecords(w.put)
	w.d, w.ctx, w.t = nil, nil, nil
	return err
}

// write is put: one record into the target.
func (w *inserter) write(rec []byte) error {
	if w.t.Rows() == w.before {
		if err := w.ctx.Err(); err != nil {
			return err
		}
	}
	return w.d.insertRecord(w.t, rec)
}

// insertRecord writes one record into t.
func (d *DB) insertRecord(t *catalog.Table, rec []byte) error {
	if err := t.InsertRecord(rec); err != nil {
		return err
	}
	d.stats.insertedRows.Add(1)
	return nil
}

func (d *DB) execDelete(s sql.Delete, sp *obs.Span) error {
	d.stats.deletes.Add(1)
	// Resolved before the victim scan is planned, so the scan reads the
	// version the deletes write. A replaced version keeps every RID, and
	// an unqualified DELETE of one copies nothing.
	t, err := d.writable(s.Table)
	if err != nil {
		return err
	}
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
	return d.deleteRows(t, op)
}

// victims are the rows a DELETE's scan found, collected before any is
// deleted: their RIDs and, back to back, their records.
type victims struct {
	rids []storage.RID
	recs rel.Records
}

// deleteRows deletes from t the rows op, a scan of t, yields. The scan
// runs to the end before the first delete, since it may be iterating a
// posting list that DeleteRID edits; DeleteRID reads the index keys it
// removes from the victims' records, none decoded. The victims' memory
// is kept for the next DELETE unless this one outgrew it (rel.Outgrown),
// so a repeated DELETE allocates the same at any number of victims.
func (d *DB) deleteRows(t *catalog.Table, op exec.Operator) error {
	v := &d.victims
	err := exec.ScanRows(op, func(rid storage.RID, rec []byte) error {
		v.rids = append(v.rids, rid)
		return v.recs.Add(rec)
	})
	i := 0
	if err == nil {
		err = v.recs.Each(func(rec []byte) error {
			i++
			return t.DeleteRID(v.rids[i-1], rec)
		})
	}
	v.recs.Trim()
	v.recs.Reset()
	if rel.Outgrown(8*cap(v.rids), 8*len(v.rids)) { // a RID is 8 bytes
		v.rids = nil
	}
	v.rids = v.rids[:0]
	return err
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

// TempPages returns the size of the pager's temp region, which is the
// most temp-table pages ever live at once, and how many of them are
// free.
func (d *DB) TempPages() (pages, free int) {
	return d.pager.TempPages(), d.pager.TempFreePages()
}

// Package db is the embedded relational DBMS the Knowledge Manager
// targets — the testbed's stand-in for the paper's commercial relational
// database with an embedded-SQL interface. It ties together the SQL
// front-end, the planner, the executor and the storage engine behind a
// small Exec/Query API.
//
// A statement runs one way: prepared (Prepare), then executed on the
// database or on a view of it by the *Stmt's methods. Exec, Query and
// QueryCount prepare a SELECT, INSERT ... SELECT or DELETE ... WHERE for
// one execution and run it through those same methods.
//
// A view (View) is the database as a snapshot published it: the
// snapshot's frozen table map. Its one rule is that a stored table
// resolves in the map, where absent means absent, and a temp table
// resolves in the live catalog; a write through a view to a version of
// its map is refused (catalog.ErrFrozen).
package db

import (
	"context"
	"fmt"
	"sync/atomic"
	"unsafe"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/obs"
	"dkbms/internal/plan"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
	"dkbms/internal/storage"
)

// DB is one open database, or a view of one (View): the database as a
// snapshot published it. A view shares the pager, catalog, statement
// counters and prepared statements with the database; only table
// resolution differs, by the view rule (Table).
type DB struct {
	pager *storage.Pager
	cat   *catalog.Catalog
	// frozen is a view's table map, a snapshot's frozen version of each
	// stored table; nil on the database itself.
	frozen map[string]*catalog.Table
	// reads records what the view's statements read of the map's
	// versions; nil records nothing.
	reads *exec.Reads

	// stats counts statement traffic for the measurement harness, and
	// stmts keeps the statements prepared on the database (Prepare).
	// They are pointers so views share them.
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

// View returns the database as a snapshot published it: tables is the
// snapshot's frozen table map, which must not be nil, and reads, when
// not nil, records what the view's statements read of the map's
// versions (exec.Reads), the plan cache's read set of the answer they
// compute. The view shares everything else — pager, catalog, counters,
// prepared statements — with the receiver; it is how a query evaluates
// against a pinned snapshot while the live catalog moves.
func (d *DB) View(tables map[string]*catalog.Table, reads *exec.Reads) *DB {
	return &DB{pager: d.pager, cat: d.cat, frozen: tables, reads: reads, stats: d.stats, stmts: d.stmts}
}

// Reads returns the view's read recorder, nil when it records nothing;
// the planner binds it to the operators over published table versions
// (plan.RecordingSource).
func (d *DB) Reads() *exec.Reads { return d.reads }

// Table resolves a table name. On the database itself it is the live
// catalog's table. On a view it follows the view rule: a stored table
// resolves in the snapshot's map, where absent means absent — a table
// created after the snapshot stays invisible, whatever its name — and a
// temp table, which no snapshot holds, resolves in the live catalog.
// This is the single binding point between statement execution and
// physical tables: the planner, DML executors and row-count probes all
// pass through it.
func (d *DB) Table(name string) *catalog.Table {
	// TableBytes reads the name's bytes and never writes them.
	return d.TableBytes(unsafe.Slice(unsafe.StringData(name), len(name)))
}

// TableBytes is Table for a name held in bytes — one built on the
// caller's stack — which it does not keep: the one lookup of Table and
// writable, which builds no string.
func (d *DB) TableBytes(name []byte) *catalog.Table {
	if d.frozen != nil {
		if t, ok := d.frozen[string(name)]; ok {
			return t
		}
	}
	t := d.cat.TableBytes(name)
	if t != nil && d.frozen != nil && !t.Temp {
		return nil
	}
	return t
}

// writable resolves the target of a write as Table does, except that
// on the database itself it resolves it with Catalog.Writable, which
// replaces a frozen version on its first write by one that shares its
// pages. A view's map version stays as it is: frozen, its mutators
// refuse the write (catalog.ErrFrozen).
func (d *DB) writable(name string) (*catalog.Table, error) {
	if d.frozen != nil {
		return d.Table(name), nil
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
	return &DB{pager: pager, cat: cat, stats: new(counters), stmts: newStmtCache()}
}

// Close flushes and closes the database.
func (d *DB) Close() error { return d.pager.Close() }

// Catalog exposes the schema manager (the KM's stored-D/KB manager uses
// it for direct bulk loads that bypass SQL parsing).
func (d *DB) Catalog() *catalog.Catalog { return d.cat }

// Rows is a fully-materialized query result, DB.Query's and
// Stmt.Query's, decoded once into a block of its own as its records
// arrive: a caller may keep any of its tuples for as long
// as it likes without keeping the statement's pages or buffers alive.
// The engine reads its own statements' results through Stmt.Scan.
type Rows struct {
	Schema *rel.Schema
	Tuples []rel.Tuple
}

// Exec parses and executes a statement that returns no rows (DDL, DML).
// An INSERT ... SELECT and a DELETE ... WHERE run as a statement
// prepared for this one execution (Stmt.Exec); DDL, INSERT ... VALUES
// and an unqualified DELETE run directly. Executing a SELECT through
// Exec is an error; use Query.
func (d *DB) Exec(stmt string) error {
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
		if s.Query == nil {
			return d.execValues(s)
		}
	case sql.Delete:
		if s.Where == nil {
			return d.truncate(s.Table)
		}
	default:
		return fmt.Errorf("db: unhandled statement %T", st)
	}
	// An INSERT ... SELECT or a DELETE ... WHERE.
	p, err := d.prepare(st, nil)
	if err != nil {
		return err
	}
	return p.Exec(context.Background(), d, nil, nil)
}

// Query parses, plans and fully evaluates a SELECT, as a statement
// prepared for this one execution (Stmt.Query).
func (d *DB) Query(stmt string) (*Rows, error) {
	p, err := d.prepareSelect(stmt)
	if err != nil {
		return nil, err
	}
	return p.Query(context.Background(), d, nil, nil)
}

// QueryCount evaluates a SELECT COUNT(*) and returns the count, read off
// the COUNT(*) operator (Stmt.QueryCount) as a statement prepared for
// this one execution. Any other SELECT is an error.
func (d *DB) QueryCount(stmt string) (int64, error) {
	p, err := d.prepareSelect(stmt)
	if err != nil {
		return 0, err
	}
	return p.QueryCount(context.Background(), d, nil, nil)
}

// prepareSelect parses and prepares the SELECT text of Query and
// QueryCount.
func (d *DB) prepareSelect(stmt string) (*Stmt, error) {
	st, err := d.parse(stmt)
	if err != nil {
		return nil, err
	}
	if _, ok := st.(*sql.Select); !ok {
		return nil, fmt.Errorf("db: Query called with a non-SELECT %T; use Exec", st)
	}
	return d.prepare(st, nil)
}

// parse parses one statement text, counted.
func (d *DB) parse(stmt string) (sql.Statement, error) {
	d.stats.parses.Add(1)
	return sql.Parse(stmt)
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
// a statement prepared for one execution has no tree yet, so its tree is
// constructed — and t is
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

// execValues is INSERT INTO t VALUES ...: each row's literals written
// to t.
func (d *DB) execValues(s sql.Insert) error {
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

// truncate is DELETE FROM t without a WHERE. A frozen version is
// replaced by one that shares its pages, and emptying that copies
// nothing.
func (d *DB) truncate(name string) error {
	d.stats.deletes.Add(1)
	t, err := d.writable(name)
	if err != nil {
		return err
	}
	if t == nil {
		return fmt.Errorf("db: no table %s", name)
	}
	return t.Truncate()
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

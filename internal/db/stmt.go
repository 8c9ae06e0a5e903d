package db

import (
	"context"
	"fmt"
	"slices"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/obs"
	"dkbms/internal/plan"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// Stmt is a prepared SELECT, INSERT ... SELECT or DELETE ... WHERE:
// parsed and bound to schemas once, planned per execution against the
// tables' state of that moment — the testbed's analog of the paper's
// precompiled embedded SQL. Every execution method takes the database it
// runs on: the database the statement was prepared on or a view of it
// (DB.View), whose tables the execution then reads, so a statement
// prepared once reads any snapshot. The statement keeps one operator
// tree, which every execution on any of them goes through: an untraced
// execution whose planning decides as the tree's last one did re-binds
// that tree — to its tables and its ?n values — instead of constructing
// one, and an execution that finds the tree held by a concurrent one
// constructs a tree of its own, which is not kept
// (plan.Prepared.Acquire). Shed empties the tree of its tables and
// working memory between the runs that use it. Table positions (FROM
// entries, the INSERT target) may be parameters $1..$n, each with a
// declared schema; an execution names the table standing at each.
// Literals compared with a column may be value parameters ?1..?m, typed
// by that column; an execution supplies their values. A Stmt is safe
// for concurrent use; executions are counted and traced exactly as the
// same statement run through Exec or Query with the values written in
// as literals — those run it as a statement prepared for one execution.
type Stmt struct {
	params []*rel.Schema
	// sel is the SELECT with the statement's kept operator tree.
	sel plan.Prepared
	// next is the cached statement of the same text with other parameter
	// schemas (stmtCache).
	next *Stmt
	// insert marks INSERT ... SELECT; the target is into, or parameter
	// $intoParam when that is positive.
	insert    bool
	into      string
	intoParam int
	// del marks DELETE FROM into, its WHERE the SELECT's.
	del bool
	// ins writes the records of an INSERT executed on the kept tree,
	// and is the execution's while it holds the tree. It is an object of
	// its own: its consumer refers to it, which keeps it on the heap, and
	// embedded it would move the caller's memory holding the statement
	// there too — a run's table list off its stack (TestEvalAllocsPerNode).
	ins *inserter
}

// Prepare parses a SELECT, an INSERT ... SELECT or a DELETE with a
// WHERE and resolves it against the schemas of its tables: params[n-1]
// for table parameter $n, the receiver's Table for named tables. Only a
// statement prepared here takes value parameters.
//
// A statement all of whose tables are parameters — every statement the
// run-time library issues — is prepared once per database and its
// views: the statement is kept, found by the text and the parameters'
// schemas compared by structure, and a later Prepare of the same on the
// database or any view of it returns the same *Stmt without parsing,
// rendering a key or allocating. The cache keeps no table and no view,
// only schemas, the plan and the statement's operator tree (shed of
// every table between runs, Stmt.Shed), and holds at most
// MaxCachedStmts statements, emptied when full. A statement naming a
// table is prepared anew each time: the table a name stands for may be
// dropped and created with another schema.
func (d *DB) Prepare(stmt string, params ...*rel.Schema) (*Stmt, error) {
	if s := d.stmts.load(stmt, params); s != nil {
		return s, nil
	}
	st, err := d.parse(stmt)
	if err != nil {
		return nil, err
	}
	s, err := d.prepare(st, params)
	if err != nil {
		return nil, err
	}
	if !s.sel.NamesTables() && (!s.insert || s.intoParam > 0) {
		s = d.stmts.store(stmt, s)
	}
	return s, nil
}

// Shed empties the statement's operator tree of its tables, indexes,
// probe keys, values and working memory (plan.Prepared.Shed), unless
// an execution holds it. A caller sheds a statement when it is done
// with it for now — the run-time library when a run ends — and may
// still use it: its next execution re-binds the shed tree.
func (s *Stmt) Shed() { s.sel.Shed() }

// prepare analyzes a parsed statement on d.
func (d *DB) prepare(st sql.Statement, params []*rel.Schema) (*Stmt, error) {
	// The caller's parameter list is copied, so a hit in the cache
	// (Prepare) lets none escape.
	s := &Stmt{params: slices.Clone(params)}
	sel, _ := st.(*sql.Select)
	if del, ok := st.(sql.Delete); ok {
		if del.Where == nil {
			return nil, fmt.Errorf("db: Prepare takes a DELETE with a WHERE")
		}
		s.del, s.into = true, del.Table
		sel = &sql.Select{From: []sql.TableRef{{Table: del.Table, Alias: del.Table}}, Where: del.Where}
	}
	if ins, ok := st.(sql.Insert); ok && ins.Query != nil {
		if ins.Param > len(s.params) || ins.Param > 0 && s.params[ins.Param-1] == nil {
			return nil, fmt.Errorf("db: no schema declared for table parameter $%d", ins.Param)
		}
		s.insert, s.into, s.intoParam, s.ins = true, ins.Table, ins.Param, new(inserter)
		sel = ins.Query
	}
	if sel == nil {
		return nil, fmt.Errorf("db: Prepare takes a SELECT, an INSERT ... SELECT or a DELETE ... WHERE, got %T", st)
	}
	var err error
	if s.sel.Analyzed, err = plan.Analyze(d, sel, s.params); err != nil {
		return nil, err
	}
	return s, nil
}

// maxStackArgs is how many bound tables an execution keeps on its stack;
// rule bodies have a handful of literals.
const maxStackArgs = 8

// bind resolves an execution's table names on d, one per declared
// parameter, into buf. A name without a table binds nil, which the plan
// reports as the missing table it is.
func (s *Stmt) bind(d *DB, buf []*catalog.Table, tables []string) ([]*catalog.Table, error) {
	if len(tables) != len(s.params) {
		return nil, fmt.Errorf("db: statement takes %d table parameters, got %d", len(s.params), len(tables))
	}
	for _, name := range tables {
		buf = append(buf, d.Table(name))
	}
	return buf, nil
}

// Query executes a prepared SELECT on d with vals[m-1] bound to ?m and
// tables[n-1] to $n, and returns its rows: a Scan pass into a sink that
// decodes them (collect). When sp is non-nil the SELECT's operator tree
// (rows emitted per operator) is recorded as child spans of sp; a nil
// sp costs one nil check.
func (s *Stmt) Query(ctx context.Context, d *DB, sp *obs.Span, vals []rel.Value, tables ...string) (rows *Rows, err error) {
	err = s.run(ctx, d, sp, vals, tables, func(op exec.Operator) (err error) {
		rows, err = collect(ctx, op)
		return err
	})
	return rows, err
}

// collect runs one pass of op and decodes each record as it arrives
// into one block of the rows' own (rel.BlockDecoder.FinishLast), which
// a caller may keep past the statement. It observes ctx between
// records and aborts with ctx.Err() when it is cancelled, so a long
// scan or join stops mid-statement instead of running to completion. A
// record that does not decode under op's schema is an error naming
// that schema.
func collect(ctx context.Context, op exec.Operator) (*Rows, error) {
	dec := rel.NewBlockDecoder(op.Schema())
	dec.Begin(0, 0)
	err := op.ScanRecords(func(rec []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := dec.Add(rec); err != nil {
			return fmt.Errorf("db: result set of %v: %w", op.Schema(), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Rows{Schema: op.Schema(), Tuples: dec.FinishLast().Rows()}, nil
}

// delete is Exec of a prepared DELETE: its victims come from the scan
// SELECT * FROM t WHERE p reads t through — an IndexScan when literal
// equalities bind an index prefix, a SeqScan otherwise, the whole
// predicate re-checked above it — run on the tree the statement kept,
// re-bound to the version the deletes write. That version is resolved
// before the scan is planned, so the scan reads it: a replaced version
// keeps every RID.
func (s *Stmt) delete(d *DB, vals []rel.Value, sp *obs.Span) error {
	d.stats.deletes.Add(1)
	t, err := d.writable(s.into)
	if err != nil {
		return err
	}
	if t == nil {
		return fmt.Errorf("db: no table %s", s.into)
	}
	op, tree, err := d.operators(&s.sel, nil, vals, sp)
	if err != nil {
		return err
	}
	defer s.sel.Release(tree)
	op, flush := exec.Instrument(op, sp)
	defer flush()
	return d.deleteRows(t, op)
}

// QueryCount executes a prepared SELECT COUNT(*) as Query does and
// returns the count, read from the tree's COUNT(*) operator after a
// counting pass that emits no record (exec.Count): it builds no row
// set and, on a kept tree, allocates nothing. Any other SELECT is an
// error. It is counted as one SELECT, and traced as Query traces it.
func (s *Stmt) QueryCount(ctx context.Context, d *DB, sp *obs.Span, vals []rel.Value, tables ...string) (n int64, err error) {
	err = s.run(ctx, d, sp, vals, tables, func(op exec.Operator) (err error) {
		n, err = exec.Count(ctx, op)
		return err
	})
	return n, err
}

// Scan executes a prepared SELECT as Query does and calls fn with each
// record of its result, in Query's row order: fn reads the record's
// columns in place (rel.Spans, under the result's column types), and
// the record is valid only during the call. It builds no row set and,
// on a kept tree, allocates nothing. It is counted as one SELECT, and
// traced as Query traces it. ctx is observed before the pass; a reader
// that must stop within it observes ctx in fn, between records. Scan is
// how the engine reads a SELECT's result: fn is the reader's own sink,
// which counts the records, decodes them or copies them as it needs.
func (s *Stmt) Scan(ctx context.Context, d *DB, sp *obs.Span, vals []rel.Value, fn func(rec []byte) error, tables ...string) error {
	return s.run(ctx, d, sp, vals, tables, func(op exec.Operator) error {
		return op.ScanRecords(fn)
	})
}

// run executes the prepared SELECT on d, once ctx is checked and its
// tables bound, and hands drain the root of the operator tree that
// executes it (DB.drainSelect).
func (s *Stmt) run(ctx context.Context, d *DB, sp *obs.Span, vals []rel.Value, tables []string, drain func(exec.Operator) error) error {
	if s.insert || s.del {
		return fmt.Errorf("db: a prepared INSERT or DELETE executes through Exec")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var buf [maxStackArgs]*catalog.Table
	args, err := s.bind(d, buf[:0], tables)
	if err != nil {
		return err
	}
	return d.drainSelect(&s.sel, args, vals, sp, drain)
}

// Exec executes a prepared INSERT ... SELECT or DELETE on d with
// vals[m-1] bound to ?m and tables[n-1] to $n. When sp is non-nil the
// statement records its operator tree (rows emitted per scan, join and
// filter) as child spans of sp. An INSERT observes ctx up to its first
// write and aborts with ctx.Err() when it is cancelled; a DELETE does
// bounded work and ignores ctx.
func (s *Stmt) Exec(ctx context.Context, d *DB, sp *obs.Span, vals []rel.Value, tables ...string) error {
	if s.del {
		return s.delete(d, vals, sp)
	}
	if !s.insert {
		return fmt.Errorf("db: Exec called on a prepared SELECT; use Query")
	}
	var buf [maxStackArgs]*catalog.Table
	args, err := s.bind(d, buf[:0], tables)
	if err != nil {
		return err
	}
	d.stats.inserts.Add(1)
	name := s.into
	if s.intoParam > 0 {
		name = tables[s.intoParam-1]
	}
	// A FROM entry bound to the target before its first write copied it
	// reads the frozen version: the state the statement starts from.
	t, err := d.writable(name)
	if err != nil {
		return err
	}
	if s.intoParam > 0 && t != nil {
		if want := s.params[s.intoParam-1]; t.Schema != want && !t.Schema.Equal(want) {
			return &plan.BindError{Ref: fmt.Sprintf("$%d", s.intoParam), Want: want, Got: t.Schema}
		}
	}
	if t == nil {
		return fmt.Errorf("db: no table %s", name)
	}
	return d.insertSelect(ctx, t, &s.sel, s.ins, args, vals, sp)
}

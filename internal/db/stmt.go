package db

import (
	"context"
	"fmt"

	"dkbms/internal/catalog"
	"dkbms/internal/obs"
	"dkbms/internal/plan"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// Stmt is a handle on a prepared SELECT or INSERT ... SELECT: parsed
// and bound to schemas once, planned per execution against the tables'
// state of that moment — the testbed's analog of the paper's
// precompiled embedded SQL. An untraced execution whose planning decides
// as the last one's did re-binds that execution's operator tree instead
// of constructing one (plan.Prepared.Acquire); the tree is the
// handle's, so every Prepare returns a handle with a tree of its own
// over a plan it may share (see Prepare). Table positions (FROM
// entries, the INSERT target) may be parameters $1..$n, each with a
// declared schema; an execution names the table standing at each.
// Literals compared with a column may be value parameters ?1..?m, typed
// by that column; an execution supplies their values. A Stmt is safe
// for concurrent use, also across the views On returns, which share its
// plan and its kept tree; executions are counted and traced exactly as
// the same statement run through Exec or Query with the values written
// in as literals.
type Stmt struct {
	d *DB
	*prepared
	// sel is the SELECT with the operator tree the handle keeps.
	sel *plan.Prepared
}

// prepared is what Prepare settles for one statement text and parameter
// schemas, immutable and shared by every handle on it.
type prepared struct {
	key    string
	params []*rel.Schema
	query  *plan.Analyzed
	// insert marks INSERT ... SELECT; the target is into, or parameter
	// $intoParam when that is positive.
	insert    bool
	into      string
	intoParam int
}

// Prepare parses a SELECT or an INSERT ... SELECT and resolves it
// against the schemas of its tables: params[n-1] for table parameter
// $n, the root database's catalog for named tables. Only a statement
// prepared here takes value parameters.
//
// A statement all of whose tables are parameters — every statement the
// run-time library issues — is prepared once per database: the plan is
// kept, keyed by the text and the parameters' schemas compared by
// structure, and a later Prepare of the same returns a new handle on it
// without parsing. The cache keeps no table and no view, only schemas
// and the plan, and holds at most MaxCachedStmts statements, emptied
// when full. A statement naming a table is prepared anew each time: the
// table a name stands for may be dropped and created with another
// schema.
func (d *DB) Prepare(stmt string, params ...*rel.Schema) (*Stmt, error) {
	key := stmtKey(stmt, params)
	if p := d.stmts.load(key); p != nil {
		return d.handle(p), nil
	}
	p, cache, err := d.prepare(stmt, params)
	if err != nil {
		return nil, err
	}
	p.key = key
	if cache {
		p = d.stmts.store(key, p)
	}
	return d.handle(p), nil
}

// Key identifies the statement s is a handle on: its text and its
// parameters' schemas by structure. Handles with one key execute alike.
func (s *Stmt) Key() string { return s.key }

// handle returns a new handle on p, with no tree kept yet.
func (d *DB) handle(p *prepared) *Stmt {
	return &Stmt{d: d, prepared: p, sel: &plan.Prepared{Analyzed: p.query}}
}

// prepare parses and analyzes stmt on the root database; cache reports
// that every table of it is a parameter.
func (d *DB) prepare(stmt string, params []*rel.Schema) (p *prepared, cache bool, err error) {
	st, err := d.parse(stmt)
	if err != nil {
		return nil, false, err
	}
	p = &prepared{params: params}
	sel, _ := st.(*sql.Select)
	if ins, ok := st.(sql.Insert); ok && ins.Query != nil {
		if ins.Param > len(params) || ins.Param > 0 && params[ins.Param-1] == nil {
			return nil, false, fmt.Errorf("db: no schema declared for table parameter $%d", ins.Param)
		}
		p.insert, p.into, p.intoParam = true, ins.Table, ins.Param
		sel = ins.Query
	}
	if sel == nil {
		return nil, false, fmt.Errorf("db: Prepare takes a SELECT or an INSERT ... SELECT, got %T", st)
	}
	if p.query, err = plan.Analyze(d.cat, sel, params); err != nil {
		return nil, false, err
	}
	return p, !p.query.NamesTables() && (!p.insert || p.intoParam > 0), nil
}

// On returns the statement executing on v, which is the database s was
// prepared on or a WithResolver view of it: its named tables then
// resolve through v, so a statement prepared once on a database reads
// any snapshot a view binds. On panics if v is another database.
func (s *Stmt) On(v *DB) *Stmt {
	if v == s.d {
		return s
	}
	if v.cat != s.d.cat {
		panic("db: Stmt.On: a view of another database")
	}
	on := *s
	on.d = v
	return &on
}

// maxStackArgs is how many bound tables an execution keeps on its stack;
// rule bodies have a handful of literals.
const maxStackArgs = 8

// bind resolves an execution's table names, one per declared parameter,
// into buf. A name without a table binds nil, which the plan reports as
// the missing table it is.
func (s *Stmt) bind(buf []*catalog.Table, tables []string) ([]*catalog.Table, error) {
	if len(tables) != len(s.params) {
		return nil, fmt.Errorf("db: statement takes %d table parameters, got %d", len(s.params), len(tables))
	}
	for _, name := range tables {
		buf = append(buf, s.d.Table(name))
	}
	return buf, nil
}

// Query executes a prepared SELECT with vals[m-1] bound to ?m and
// tables[n-1] to $n. ctx and sp are as in QueryTracedCtx.
func (s *Stmt) Query(ctx context.Context, sp *obs.Span, vals []rel.Value, tables ...string) (*Rows, error) {
	if s.insert {
		return nil, fmt.Errorf("db: Query called on a prepared INSERT; use Exec")
	}
	var buf [maxStackArgs]*catalog.Table
	args, err := s.bind(buf[:0], tables)
	if err != nil {
		return nil, err
	}
	return s.d.runSelect(ctx, s.sel, args, vals, sp, true)
}

// QueryCount executes a prepared SELECT COUNT(*) and returns the count.
func (s *Stmt) QueryCount(ctx context.Context, sp *obs.Span, vals []rel.Value, tables ...string) (int64, error) {
	rows, err := s.Query(ctx, sp, vals, tables...)
	if err != nil {
		return 0, err
	}
	return singleInt(rows)
}

// Exec executes a prepared INSERT ... SELECT with vals[m-1] bound to ?m
// and tables[n-1] to $n. ctx and sp are as in ExecTracedCtx.
func (s *Stmt) Exec(ctx context.Context, sp *obs.Span, vals []rel.Value, tables ...string) error {
	if !s.insert {
		return fmt.Errorf("db: Exec called on a prepared SELECT; use Query")
	}
	var buf [maxStackArgs]*catalog.Table
	args, err := s.bind(buf[:0], tables)
	if err != nil {
		return err
	}
	s.d.stats.inserts.Add(1)
	name := s.into
	var t *catalog.Table
	if s.intoParam > 0 {
		name, t = tables[s.intoParam-1], args[s.intoParam-1]
		if want := s.params[s.intoParam-1]; t != nil && t.Schema != want && !t.Schema.Equal(want) {
			return &plan.BindError{Ref: fmt.Sprintf("$%d", s.intoParam), Want: want, Got: t.Schema}
		}
	} else {
		t = s.d.Table(name)
	}
	if t == nil {
		return fmt.Errorf("db: no table %s", name)
	}
	return s.d.insertSelect(ctx, t, s.sel, args, vals, sp, true)
}

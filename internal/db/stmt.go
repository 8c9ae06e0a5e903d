package db

import (
	"context"
	"fmt"
	"sync/atomic"

	"dkbms/internal/catalog"
	"dkbms/internal/obs"
	"dkbms/internal/plan"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// Stmt is a prepared SELECT or INSERT ... SELECT: parsed and bound to
// schemas once, planned per execution against the tables' state of that
// moment — the testbed's analog of the paper's precompiled embedded
// SQL. An untraced execution whose planning decides as the last one's
// did re-binds that execution's operator tree instead of constructing
// one (plan.Prepared.Acquire). Table positions (FROM entries, the
// INSERT target) may be parameters $1..$n, each with a declared schema;
// an execution names the table standing at each. Literals compared with
// a column may be value parameters ?1..?m, typed by that column; an
// execution supplies their values. A Stmt is safe for concurrent use,
// also across the views On returns, which share its plan; executions
// are counted and traced exactly as the same statement run through Exec
// or Query with the values written in as literals.
type Stmt struct {
	d      *DB
	params []*rel.Schema
	sel    *plan.Prepared
	// insert marks INSERT ... SELECT; the target is into, or parameter
	// $intoParam when that is positive.
	insert    bool
	into      string
	intoParam int
}

// Prepare parses a SELECT or an INSERT ... SELECT and resolves it
// against the schemas of its tables: params[n-1] for table parameter
// $n, the current catalog for named tables. Only a statement prepared
// here takes value parameters.
func (d *DB) Prepare(stmt string, params ...*rel.Schema) (*Stmt, error) {
	st, err := sql.Parse(stmt)
	if err != nil {
		return nil, err
	}
	s := &Stmt{d: d, params: params}
	sel, _ := st.(*sql.Select)
	if ins, ok := st.(sql.Insert); ok && ins.Query != nil {
		if ins.Param > len(params) || ins.Param > 0 && params[ins.Param-1] == nil {
			return nil, fmt.Errorf("db: no schema declared for table parameter $%d", ins.Param)
		}
		s.insert, s.into, s.intoParam = true, ins.Table, ins.Param
		sel = ins.Query
	}
	if sel == nil {
		return nil, fmt.Errorf("db: Prepare takes a SELECT or an INSERT ... SELECT, got %T", st)
	}
	if s.sel, err = plan.Prepare(d, sel, params); err != nil {
		return nil, err
	}
	return s, nil
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
	atomic.AddInt64(&s.d.stats.Inserts, 1)
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

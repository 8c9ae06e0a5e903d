package rtlib

import (
	"fmt"
	"strconv"
	"sync"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/rel"
)

// Statements holds the statements of one evaluation run:
// the run's rules and its per-predicate copy, count and read
// statements, with every table position a parameter and every body
// constant a value parameter. A statement is prepared once per database
// (db.Prepare keeps its plan, found by text and parameter schemas), so
// a run parses nothing that an earlier run — of this program or of any
// other whose rules read alike, as every magic-set program for
// ancestor(c, Y) does whatever c is — already prepared. The run holds
// one handle per distinct statement, however many of its nodes and
// rules use it, and each handle keeps the operator tree of its last
// execution, which the next re-binds — to its tables and its ?n values —
// when the planner decides as before (plan.Prepared.Acquire); so the
// rounds of the run — and a rule's differentials within a round —
// rebind one statement instead of rendering and parsing a new one. This
// is the paper's object program: embedded SQL precompiled once, then
// driven by the LFP loop. A kept tree also keeps its working memory: the
// next execution decodes its pages over the last one's blocks and
// reuses its key tables, sets and slabs, so the rows a tree reads are
// valid until its next execution, and every row the run is handed
// (Query's results, INSERT's writes) is a copy. During the run a tree
// pins its last execution's tables and the memory that execution used
// (rel.Outgrown bounds what it keeps beyond that). The handles live as
// long as the run that made them; the trees outlive it: Close, when the
// run ends, parks each handle's tree on its statement (db.Stmt.Park),
// shed of its tables and working memory, and the next run's first
// execution of the statement re-binds it instead of constructing one.
// Nothing is kept on the compiled program. A Statements is safe for
// concurrent use, as the statements it hands out are.
type Statements struct {
	d       *db.DB
	schemas map[string]*rel.Schema

	// mu guards the maps, so that a Statements is safe for concurrent
	// use.
	mu sync.Mutex
	// uses maps each use to its handle, and keys each statement's
	// db.Stmt.ID to the handle every use of it shares.
	uses map[useKey]*db.Stmt
	keys map[db.StmtID]*db.Stmt
}

// useKey identifies a use of a statement in the run: a rule in one
// form, or a predicate's relation in one role.
type useKey struct {
	form uint8
	rule *codegen.RuleSQL
	pred string
}

// newStatements returns an empty set over d. schemas holds the derived
// predicates' schemas; a base predicate has its extensional table's.
func newStatements(d *db.DB, schemas map[string]*rel.Schema) *Statements {
	return &Statements{d: d, schemas: schemas, uses: make(map[useKey]*db.Stmt), keys: make(map[db.StmtID]*db.Stmt)}
}

// schema is the schema every relation standing for pred has.
func (s *Statements) schema(pred string) (*rel.Schema, error) {
	if sch := s.schemas[pred]; sch != nil {
		return sch, nil
	}
	if t := s.d.Table(codegen.BaseTable(pred)); t != nil {
		return t.Schema, nil
	}
	return nil, fmt.Errorf("rtlib: no relation for predicate %s", pred)
}

// lookup returns the handle of a use already prepared, or nil.
func (s *Statements) lookup(key useKey) *db.Stmt {
	s.mu.Lock()
	st := s.uses[key]
	s.mu.Unlock()
	return st
}

// keep records st as the handle of a use and returns the handle the use
// has: the one the run holds on st's statement if it holds one, or the
// one a concurrent caller recorded first.
func (s *Statements) keep(key useKey, st *db.Stmt) *db.Stmt {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have := s.uses[key]; have != nil {
		return have
	}
	if have := s.keys[st.ID()]; have != nil {
		st = have
	} else {
		s.keys[st.ID()] = st
	}
	s.uses[key] = st
	return st
}

// RuleForm is the statement a compiled rule is prepared as. With n FROM
// positions, $1..$n are those positions in order, and the rule's body
// constants are its value parameters (codegen.RuleSQL.Values).
type RuleForm uint8

// The forms. A run uses each of its rules in one of them.
const (
	// RuleInsert adds to $n+1 the body's tuples it lacks (exit rules,
	// naive evaluation):
	//
	//	INSERT INTO $n+1 <body> EXCEPT SELECT * FROM $n+1
	RuleInsert RuleForm = iota
	// RuleInsertNew adds to $n+1 the body's tuples neither it nor $n+2
	// holds (a differential: pending delta and accumulated relation):
	//
	//	INSERT INTO $n+1 <body> EXCEPT SELECT * FROM $n+2 EXCEPT SELECT * FROM $n+1
	RuleInsertNew
)

// Rule returns r prepared in the given form.
func (s *Statements) Rule(r *codegen.RuleSQL, form RuleForm) (*db.Stmt, error) {
	key := useKey{form: uint8(form), rule: r}
	if st := s.lookup(key); st != nil {
		return st, nil
	}
	n := len(r.From)
	params := make([]*rel.Schema, n, n+2)
	for i, f := range r.From {
		sch, err := s.schema(f.Pred)
		if err != nil {
			return nil, err
		}
		params[i] = sch
	}
	pos := 0
	text := r.ParamSQL(func(string) string { pos++; return "$" + strconv.Itoa(pos) })
	head, err := s.schema(r.Head)
	if err != nil {
		return nil, err
	}
	target := "$" + strconv.Itoa(n+1)
	params = append(params, head)
	if form == RuleInsertNew {
		params = append(params, head)
		text += " EXCEPT SELECT * FROM $" + strconv.Itoa(n+2)
	}
	text = "INSERT INTO " + target + " " + text + " EXCEPT SELECT * FROM " + target
	st, err := s.d.Prepare(text, params...)
	if err != nil {
		return nil, fmt.Errorf("rtlib: rule %q: %w", r.Source, err)
	}
	return s.keep(key, st), nil
}

// Role is what a statement over a predicate's relations does.
type Role uint8

// The roles; every parameter has the predicate's schema.
const (
	// ReadAll is SELECT * FROM $1.
	ReadAll Role = iota
	// CountAll is SELECT COUNT(*) FROM $1.
	CountAll
	// CopyInto is INSERT INTO $1 SELECT * FROM $2.
	CopyInto
	// readMissing is SELECT * FROM $1 EXCEPT SELECT * FROM $2.
	readMissing
)

var roleSQL = [...]struct {
	text   string
	params int
}{
	ReadAll:     {"SELECT * FROM $1", 1},
	CountAll:    {"SELECT COUNT(*) FROM $1", 1},
	CopyInto:    {"INSERT INTO $1 SELECT * FROM $2", 2},
	readMissing: {"SELECT * FROM $1 EXCEPT SELECT * FROM $2", 2},
}

// Relation returns the statement of the given role over relations of
// pred.
func (s *Statements) Relation(pred string, role Role) (*db.Stmt, error) {
	key := useKey{form: uint8(role), pred: pred}
	if st := s.lookup(key); st != nil {
		return st, nil
	}
	sch, err := s.schema(pred)
	if err != nil {
		return nil, err
	}
	params := []*rel.Schema{sch, sch}
	st, err := s.d.Prepare(roleSQL[role].text, params[:roleSQL[role].params]...)
	if err != nil {
		return nil, err
	}
	return s.keep(key, st), nil
}

// Close parks the tree of every statement the run holds (db.Stmt.Park):
// called when the run ends, after its last execution. A Statements may
// still be used after Close; its statements then start their trees
// over.
func (s *Statements) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.keys {
		st.Park()
	}
}

// Tables lists the relation standing at each FROM position of r.
func Tables(r *codegen.RuleSQL, tableOf func(pred string) string) []string {
	tables := make([]string, len(r.From), len(r.From)+2)
	for i, f := range r.From {
		tables[i] = tableOf(f.Pred)
	}
	return tables
}

package rtlib

import (
	"fmt"
	"strconv"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/rel"
)

// Statements prepares the statements of one evaluation or maintenance
// run, each once: the run's rules and its per-predicate copy, count and
// read statements, with every table position a parameter, so the
// rounds of the run — and a rule's differentials within a round —
// rebind one statement instead of rendering and parsing a new one, and
// each statement keeps the operator tree of its last execution, which
// the next re-binds when the planner decides as before
// (plan.Prepared.Acquire). This is the paper's object program: embedded
// SQL precompiled once, then driven by the LFP loop. A kept tree also
// keeps its working memory: the next execution decodes its pages over
// the last one's blocks and reuses its key tables, sets and slabs, so
// the rows a tree reads are valid until its next execution, and every
// row the run is handed (Query's results, INSERT's writes) is a copy. A
// Statements lives as long as the run that made it and no longer — with
// it go the kept trees, each pinning its last execution's tables and
// the memory that execution used (rel.Outgrown bounds what it keeps
// beyond that) — and nothing is kept on the compiled program. The cache
// itself is not for concurrent use (prepare, then fan out); the
// statements it hands out are.
type Statements struct {
	d       *db.DB
	schemas map[string]*rel.Schema
	stmts   map[stmtKey]*db.Stmt
}

// stmtKey identifies a statement of the run: a rule in one form, or a
// predicate's relation in one role.
type stmtKey struct {
	form uint8
	rule *codegen.RuleSQL
	pred string
}

// NewStatements returns an empty set over d. schemas holds the derived
// predicates' schemas; a base predicate has its extensional table's.
func NewStatements(d *db.DB, schemas map[string]*rel.Schema) *Statements {
	return &Statements{d: d, schemas: schemas, stmts: make(map[stmtKey]*db.Stmt)}
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

// RuleForm is the statement a compiled rule is prepared as. With n FROM
// positions, $1..$n are those positions in order.
type RuleForm uint8

// The forms. A run uses each of its rules in one of them.
const (
	// RuleSelect is the rule body alone.
	RuleSelect RuleForm = iota
	// RuleInsert adds to $n+1 the body's tuples it lacks (exit rules,
	// naive evaluation):
	//
	//	INSERT INTO $n+1 <body> EXCEPT SELECT * FROM $n+1
	RuleInsert
	// RuleInsertNew adds to $n+1 the body's tuples neither it nor $n+2
	// holds (a differential: pending delta and accumulated relation):
	//
	//	INSERT INTO $n+1 <body> EXCEPT SELECT * FROM $n+2 EXCEPT SELECT * FROM $n+1
	RuleInsertNew
)

// Rule returns r prepared in the given form.
func (s *Statements) Rule(r *codegen.RuleSQL, form RuleForm) (*db.Stmt, error) {
	key := stmtKey{form: uint8(form), rule: r}
	if st, ok := s.stmts[key]; ok {
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
	text := r.SQL(func(string) string { pos++; return "$" + strconv.Itoa(pos) })
	if form != RuleSelect {
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
	}
	st, err := s.d.Prepare(text, params...)
	if err != nil {
		return nil, fmt.Errorf("rtlib: rule %q: %w", r.Source, err)
	}
	s.stmts[key] = st
	return st, nil
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
	key := stmtKey{form: uint8(role), pred: pred}
	if st, ok := s.stmts[key]; ok {
		return st, nil
	}
	sch, err := s.schema(pred)
	if err != nil {
		return nil, err
	}
	params := [2]*rel.Schema{sch, sch}
	st, err := s.d.Prepare(roleSQL[role].text, params[:roleSQL[role].params]...)
	if err != nil {
		return nil, err
	}
	s.stmts[key] = st
	return st, nil
}

// Tables lists the relation standing at each FROM position of r.
func Tables(r *codegen.RuleSQL, tableOf func(pred string) string) []string {
	tables := make([]string, len(r.From), len(r.From)+2)
	for i, f := range r.From {
		tables[i] = tableOf(f.Pred)
	}
	return tables
}

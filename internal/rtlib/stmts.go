package rtlib

import (
	"fmt"
	"strconv"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/rel"
)

// statements holds the statements of one evaluation run:
// the run's rules and its per-predicate copy, count and read
// statements, with every table position a parameter and every body
// constant a value parameter. A statement is prepared once per database
// (db.Prepare keeps its plan, found by text and parameter schemas), so
// a run parses nothing that an earlier run — of this program or of any
// other whose rules read alike, as every magic-set program for
// ancestor(c, Y) does whatever c is — already prepared. Each statement
// keeps the operator tree of its last execution, which the next
// re-binds — to its tables and its ?n values — when the planner decides
// as before (plan.Prepared.Acquire), whichever of the run's nodes and
// rules, or of concurrent runs, executes it; so the rounds of the run —
// and a rule's differentials within a round — rebind one statement
// instead of rendering and parsing a new one. This is the paper's
// object program: embedded SQL precompiled once, then driven by the LFP
// loop. A kept tree also keeps its working memory: the record arenas
// and key tables of its hash joins, nested-loop joins and DISTINCTs,
// and the sets of its set operations, which the next execution resets
// and fills again. Records pass through the tree valid only for the
// call that passes them: a read streams them (db.Stmt.Scan) into a
// sink of the run's own, which counts them or decodes the answer once,
// into a block of its own (countRows, readRows, readBlock); an INSERT
// writes the records as they come. During the run a tree pins its last
// execution's tables and the memory that execution used (rel.Outgrown
// bounds what it keeps beyond that). Close, when the run
// ends, sheds each statement the run used (db.Stmt.Shed) of its tables,
// indexes, probe keys, values and all that working memory (exec.Shed),
// and the next run's first execution of the statement re-binds the shed
// tree instead of constructing one. Nothing is kept on the compiled
// program.
type statements struct {
	d       *db.DB
	schemas map[string]*rel.Schema

	// uses maps each use to its statement.
	uses map[useKey]*db.Stmt
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
func newStatements(d *db.DB, schemas map[string]*rel.Schema) *statements {
	return &statements{d: d, schemas: schemas, uses: make(map[useKey]*db.Stmt)}
}

// schema is the schema every relation standing for pred has.
func (s *statements) schema(pred string) (*rel.Schema, error) {
	if sch := s.schemas[pred]; sch != nil {
		return sch, nil
	}
	var name [64]byte
	if t := s.d.TableBytes(codegen.AppendBaseTable(name[:0], pred)); t != nil {
		return t.Schema, nil
	}
	return nil, fmt.Errorf("rtlib: no relation for predicate %s", pred)
}

// ruleForm is the statement a compiled rule is prepared as. With n FROM
// positions, $1..$n are those positions in order, and the rule's body
// constants are its value parameters (codegen.RuleSQL.Values).
type ruleForm uint8

// The forms. A run uses each of its rules in one of them.
const (
	// ruleInsert adds to $n+1 the body's tuples it lacks (exit rules,
	// naive evaluation):
	//
	//	INSERT INTO $n+1 <body> EXCEPT SELECT * FROM $n+1
	ruleInsert ruleForm = iota
	// ruleInsertNew adds to $n+1 the body's tuples neither it nor $n+2
	// holds (a differential: pending delta and accumulated relation):
	//
	//	INSERT INTO $n+1 <body> EXCEPT SELECT * FROM $n+2 EXCEPT SELECT * FROM $n+1
	ruleInsertNew
)

// Rule returns r prepared in the given form.
func (s *statements) rule(r *codegen.RuleSQL, form ruleForm) (*db.Stmt, error) {
	key := useKey{form: uint8(form), rule: r}
	if st := s.uses[key]; st != nil {
		return st, nil
	}
	n := len(r.From)
	// The parameter schemas are listed on the stack too: Prepare keeps
	// a copy when it prepares the statement, and none on a hit.
	var pbuf [8]*rel.Schema
	params := pbuf[:0]
	for _, f := range r.From {
		sch, err := s.schema(f.Pred)
		if err != nil {
			return nil, err
		}
		params = append(params, sch)
	}
	head, err := s.schema(r.Head)
	if err != nil {
		return nil, err
	}
	params = append(params, head)
	// The text is rendered on the stack, then copied once into a string
	// of its length.
	var buf [512]byte
	text := strconv.AppendInt(append(buf[:0], "INSERT INTO $"...), int64(n+1), 10)
	text = r.AppendParamSQL(append(text, ' '))
	if form == ruleInsertNew {
		params = append(params, head)
		text = strconv.AppendInt(append(text, " EXCEPT SELECT * FROM $"...), int64(n+2), 10)
	}
	text = strconv.AppendInt(append(text, " EXCEPT SELECT * FROM $"...), int64(n+1), 10)
	st, err := s.d.Prepare(string(text), params...)
	if err != nil {
		return nil, fmt.Errorf("rtlib: rule %q: %w", r.Source(), err)
	}
	s.uses[key] = st
	return st, nil
}

// relRole is what a statement over a predicate's relations does.
type relRole uint8

// The roles; every parameter has the predicate's schema.
const (
	// readAll is SELECT * FROM $1.
	readAll relRole = iota
	// countAll is SELECT COUNT(*) FROM $1.
	countAll
	// copyInto is INSERT INTO $1 SELECT * FROM $2.
	copyInto
	// readMissing is SELECT * FROM $1 EXCEPT SELECT * FROM $2.
	readMissing
)

var roleSQL = [...]struct {
	text   string
	params int
}{
	readAll:     {"SELECT * FROM $1", 1},
	countAll:    {"SELECT COUNT(*) FROM $1", 1},
	copyInto:    {"INSERT INTO $1 SELECT * FROM $2", 2},
	readMissing: {"SELECT * FROM $1 EXCEPT SELECT * FROM $2", 2},
}

// Relation returns the statement of the given role over relations of
// pred.
func (s *statements) relation(pred string, role relRole) (*db.Stmt, error) {
	key := useKey{form: uint8(role), pred: pred}
	if st := s.uses[key]; st != nil {
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
	s.uses[key] = st
	return st, nil
}

// Close sheds every statement the run used (db.Stmt.Shed): called when
// the run ends, after its last execution. A statements may still be
// used after Close; its statements then re-bind their shed trees.
func (s *statements) close() {
	for _, st := range s.uses {
		st.Shed()
	}
}

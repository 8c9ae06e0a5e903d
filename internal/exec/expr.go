// Package exec implements the testbed DBMS's physical operators — the
// operator tree the planner assembles for each statement — together
// with resolved (ordinal-addressed) expression evaluation.
//
// Rows travel the tree as stored records, pushed from the leaves: a
// scan passes each heap record on under its page's pin, and every
// operator above reads the columns it touches in place (rel.Spans) —
// a filter compares their bytes, a projection and a join concatenate
// them, a hash join and a set key on them. Nothing between a heap page
// and a set's key table decodes a value. The statement's root passes
// its records to the statement's reader, which reads them in place or
// decodes them once, into a block of its own (db.Stmt.Scan,
// db.Stmt.Query), or an INSERT writes them to the heap as they are.
package exec

import (
	"bytes"
	"cmp"
	"fmt"

	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// Scalar is a resolved scalar expression over a row, the row being a
// record read column by column (rel.Spans).
type Scalar interface {
	// Append appends the expression's value in row r to buf, encoded as
	// a record's column (rel.Value.AppendKey).
	Append(buf []byte, r *rel.Spans) []byte
	// Type returns the static type of the expression.
	Type() rel.Type
	// operand returns the expression's value in row r: the bytes of a
	// column (col true), or else a value.
	operand(r *rel.Spans) (span []byte, v rel.Value, col bool)
}

// Col reads the column at a fixed ordinal.
type Col struct {
	Ord int
	Ty  rel.Type
}

// Append appends the column's bytes.
func (c Col) Append(buf []byte, r *rel.Spans) []byte { return append(buf, r.Col(c.Ord)...) }

// Type returns the column's type.
func (c Col) Type() rel.Type { return c.Ty }

func (c Col) operand(r *rel.Spans) ([]byte, rel.Value, bool) { return r.Col(c.Ord), rel.Value{}, true }

// Const is a literal value.
type Const struct {
	Val rel.Value
}

// Append appends the constant's encoding.
func (c Const) Append(buf []byte, _ *rel.Spans) []byte { return c.Val.AppendKey(buf) }

// Type returns the literal's type.
func (c Const) Type() rel.Type { return c.Val.Kind }

func (c Const) operand(*rel.Spans) ([]byte, rel.Value, bool) { return nil, c.Val, false }

// Param is a value parameter ?n: it reads the value the current
// execution binds from the tree's own array of them, which the planner
// overwrites in place when it re-binds the tree for the next execution.
type Param struct {
	Val *rel.Value
}

// Append appends the encoding of the value bound to the parameter.
func (p Param) Append(buf []byte, _ *rel.Spans) []byte { return p.Val.AppendKey(buf) }

// Type returns the parameter's type.
func (p Param) Type() rel.Type { return p.Val.Kind }

func (p Param) operand(*rel.Spans) ([]byte, rel.Value, bool) { return nil, *p.Val, false }

// String renders the parameter as the Const of its bound value prints,
// so a plan bound to values prints as the plan of its literal text.
func (p Param) String() string { return fmt.Sprint(Const{Val: *p.Val}) }

// Pred is a resolved boolean predicate over a row (see Scalar).
type Pred interface {
	Holds(r *rel.Spans) bool
}

// True is the always-true predicate.
type True struct{}

// Holds reports true.
func (True) Holds(*rel.Spans) bool { return true }

// Cmp compares two scalars as rel.Compare orders their values, reading
// columns in place: an equality of two columns compares their bytes,
// and an ordered comparison reads only the ints and characters it
// compares.
type Cmp struct {
	Op          sql.CmpOp
	Left, Right Scalar
}

// Holds evaluates the comparison.
func (c Cmp) Holds(r *rel.Spans) bool {
	ls, lv, lcol := c.Left.operand(r)
	rs, rv, rcol := c.Right.operand(r)
	var d int
	switch lt := c.Left.Type(); {
	case lcol && rcol && lt != c.Right.Type():
		d = cmp.Compare(lt, c.Right.Type())
	case lcol && rcol && (c.Op == sql.CmpEq || c.Op == sql.CmpNe):
		// Spans of one type are equal exactly when their values are.
		return bytes.Equal(ls, rs) == (c.Op == sql.CmpEq)
	case lcol && rcol:
		d = rel.CompareSpans(ls, rs, lt)
	case lcol:
		d = rel.CompareSpan(ls, lt, rv)
	case rcol:
		d = -rel.CompareSpan(rs, c.Right.Type(), lv)
	default:
		d = rel.Compare(lv, rv)
	}
	switch c.Op {
	case sql.CmpEq:
		return d == 0
	case sql.CmpNe:
		return d != 0
	case sql.CmpLt:
		return d < 0
	case sql.CmpLe:
		return d <= 0
	case sql.CmpGt:
		return d > 0
	case sql.CmpGe:
		return d >= 0
	}
	return false
}

// AndP is a conjunction of predicates.
type AndP struct{ Preds []Pred }

// Holds reports whether every conjunct holds.
func (a AndP) Holds(r *rel.Spans) bool {
	for _, p := range a.Preds {
		if !p.Holds(r) {
			return false
		}
	}
	return true
}

// OrP is a disjunction.
type OrP struct{ Left, Right Pred }

// Holds reports whether either disjunct holds.
func (o OrP) Holds(r *rel.Spans) bool { return o.Left.Holds(r) || o.Right.Holds(r) }

// NotP negates a predicate.
type NotP struct{ Inner Pred }

// Holds reports the negation.
func (n NotP) Holds(r *rel.Spans) bool { return !n.Inner.Holds(r) }

// ConjunctsOf flattens nested AndP/Cmp trees into a conjunct list.
func ConjunctsOf(p Pred) []Pred {
	if a, ok := p.(AndP); ok {
		var out []Pred
		for _, c := range a.Preds {
			out = append(out, ConjunctsOf(c)...)
		}
		return out
	}
	if _, ok := p.(True); ok {
		return nil
	}
	return []Pred{p}
}

// AndOf rebuilds a predicate from conjuncts (True for an empty list).
func AndOf(preds []Pred) Pred {
	switch len(preds) {
	case 0:
		return True{}
	case 1:
		return preds[0]
	default:
		return AndP{Preds: preds}
	}
}

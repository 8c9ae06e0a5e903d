// Package exec implements the testbed DBMS's physical operators — the
// Volcano-style iterator tree the planner assembles for each statement —
// together with resolved (ordinal-addressed) expression evaluation.
package exec

import (
	"fmt"

	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// Scalar is a resolved scalar expression evaluated against a tuple.
type Scalar interface {
	Eval(tu rel.Tuple) rel.Value
	// Type returns the static type of the expression.
	Type() rel.Type
}

// Col reads the tuple value at a fixed ordinal.
type Col struct {
	Ord int
	Ty  rel.Type
}

// Eval returns the column value.
func (c Col) Eval(tu rel.Tuple) rel.Value { return tu[c.Ord] }

// Type returns the column's type.
func (c Col) Type() rel.Type { return c.Ty }

// Const is a literal value.
type Const struct {
	Val rel.Value
}

// Eval returns the constant.
func (c Const) Eval(rel.Tuple) rel.Value { return c.Val }

// Type returns the literal's type.
func (c Const) Type() rel.Type { return c.Val.Kind }

// Param is a value parameter ?n: it reads the value the current
// execution binds from the tree's own array of them, which the planner
// overwrites in place when it re-binds the tree for the next execution.
type Param struct {
	Val *rel.Value
}

// Eval returns the value bound to the parameter.
func (p Param) Eval(rel.Tuple) rel.Value { return *p.Val }

// Type returns the parameter's type.
func (p Param) Type() rel.Type { return p.Val.Kind }

// String renders the parameter as the Const of its bound value prints,
// so a plan bound to values prints as the plan of its literal text.
func (p Param) String() string { return fmt.Sprint(Const{Val: *p.Val}) }

// Pred is a resolved boolean predicate.
type Pred interface {
	Holds(tu rel.Tuple) bool
}

// True is the always-true predicate.
type True struct{}

// Holds reports true.
func (True) Holds(rel.Tuple) bool { return true }

// Cmp compares two scalars.
type Cmp struct {
	Op          sql.CmpOp
	Left, Right Scalar
}

// Holds evaluates the comparison.
func (c Cmp) Holds(tu rel.Tuple) bool {
	r := rel.Compare(c.Left.Eval(tu), c.Right.Eval(tu))
	switch c.Op {
	case sql.CmpEq:
		return r == 0
	case sql.CmpNe:
		return r != 0
	case sql.CmpLt:
		return r < 0
	case sql.CmpLe:
		return r <= 0
	case sql.CmpGt:
		return r > 0
	case sql.CmpGe:
		return r >= 0
	}
	return false
}

// AndP is a conjunction of predicates.
type AndP struct{ Preds []Pred }

// Holds reports whether every conjunct holds.
func (a AndP) Holds(tu rel.Tuple) bool {
	for _, p := range a.Preds {
		if !p.Holds(tu) {
			return false
		}
	}
	return true
}

// OrP is a disjunction.
type OrP struct{ Left, Right Pred }

// Holds reports whether either disjunct holds.
func (o OrP) Holds(tu rel.Tuple) bool { return o.Left.Holds(tu) || o.Right.Holds(tu) }

// NotP negates a predicate.
type NotP struct{ Inner Pred }

// Holds reports the negation.
func (n NotP) Holds(tu rel.Tuple) bool { return !n.Inner.Holds(tu) }

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

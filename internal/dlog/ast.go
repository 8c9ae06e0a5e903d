// Package dlog implements the testbed's Horn-clause front-end: the rule
// language of the paper's Knowledge Manager. Clauses are pure,
// function-free Datalog:
//
//	ancestor(X, Y) :- parent(X, Y).
//	ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
//	parent(john, mary).
//	?- ancestor(john, X).
//
// Variables begin with an upper-case letter or '_'; constants are
// lower-case identifiers, quoted strings, or integers. A clause with an
// empty body and a ground head is a fact. "?- goal." poses a query.
package dlog

import (
	"fmt"
	"strconv"

	"dkbms/internal/rel"
)

// TermKind distinguishes variables from constants.
type TermKind int

// Term kinds.
const (
	TermVar TermKind = iota
	TermConst
)

// Term is one argument of an atom: a variable or a constant.
type Term struct {
	Kind TermKind
	Var  string    // variable name when Kind == TermVar
	Val  rel.Value // constant value when Kind == TermConst
}

// V returns a variable term.
func V(name string) Term { return Term{Kind: TermVar, Var: name} }

// C returns a constant term from a value.
func C(v rel.Value) Term { return Term{Kind: TermConst, Val: v} }

// CStr returns a string-constant term.
func CStr(s string) Term { return C(rel.NewString(s)) }

// CInt returns an integer-constant term.
func CInt(n int64) Term { return C(rel.NewInt(n)) }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == TermVar }

// String renders the term in source syntax.
func (t Term) String() string {
	switch {
	case t.IsVar():
		return t.Var
	case t.Val.Kind == rel.TypeString && isPlainConstant(t.Val.Str):
		return t.Val.Str
	}
	var buf [32]byte
	return string(t.Append(buf[:0]))
}

// Append appends the term in source syntax to b.
func (t Term) Append(b []byte) []byte {
	if t.IsVar() {
		return append(b, t.Var...)
	}
	switch t.Val.Kind {
	case rel.TypeInt:
		return strconv.AppendInt(b, t.Val.Int, 10)
	case rel.TypeString:
		if isPlainConstant(t.Val.Str) {
			return append(b, t.Val.Str...)
		}
		b = append(b, '"')
		for i := 0; i < len(t.Val.Str); i++ {
			if c := t.Val.Str[i]; c == '\\' || c == '"' {
				b = append(b, '\\')
			}
			b = append(b, t.Val.Str[i])
		}
		return append(b, '"')
	default:
		return append(b, "<?>"...)
	}
}

// isPlainConstant reports whether s can be written without quotes
// (lower-case identifier).
func isPlainConstant(s string) bool {
	if len(s) == 0 {
		return false
	}
	c := s[0]
	if !(c >= 'a' && c <= 'z') {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// String renders the atom in source syntax.
func (a Atom) String() string {
	var buf [64]byte
	return string(a.Append(buf[:0]))
}

// Append appends the atom in source syntax to b.
func (a Atom) Append(b []byte) []byte {
	b = append(append(b, a.Pred...), '(')
	for i, t := range a.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = t.Append(b)
	}
	return append(b, ')')
}

// Vars returns the distinct variable names in order of first occurrence.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// IsGround reports whether the atom has no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Clause is a Horn clause: Head :- Body. An empty body with a ground
// head is a fact.
type Clause struct {
	Head Atom
	Body []Atom
}

// IsFact reports whether the clause is a fact (empty body, ground head).
func (c Clause) IsFact() bool { return len(c.Body) == 0 && c.Head.IsGround() }

// String renders the clause in source syntax (with trailing period).
func (c Clause) String() string {
	var buf [128]byte
	return string(c.Append(buf[:0]))
}

// Append appends the clause in source syntax (with trailing period) to
// b.
func (c Clause) Append(b []byte) []byte {
	b = c.Head.Append(b)
	for i, a := range c.Body {
		if i == 0 {
			b = append(b, " :- "...)
		} else {
			b = append(b, ", "...)
		}
		b = a.Append(b)
	}
	return append(b, '.')
}

// Vars returns the distinct variables of the clause (head then body) in
// order of first occurrence.
func (c Clause) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a Atom) {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	add(c.Head)
	for _, a := range c.Body {
		add(a)
	}
	return out
}

// RangeRestricted reports whether every head variable appears in the
// body — the safety condition for bottom-up evaluation of rules.
func (c Clause) RangeRestricted() bool {
	if len(c.Body) == 0 {
		return c.Head.IsGround()
	}
	bodyVars := make(map[string]bool)
	for _, a := range c.Body {
		for _, t := range a.Args {
			if t.IsVar() {
				bodyVars[t.Var] = true
			}
		}
	}
	for _, t := range c.Head.Args {
		if t.IsVar() && !bodyVars[t.Var] {
			return false
		}
	}
	return true
}

// Rename returns a copy of the clause with the head predicate replaced.
func (c Clause) Rename(pred string) Clause {
	nc := c.Clone()
	nc.Head.Pred = pred
	return nc
}

// Clone deep-copies the clause.
func (c Clause) Clone() Clause {
	nc := Clause{Head: cloneAtom(c.Head)}
	nc.Body = make([]Atom, len(c.Body))
	for i, a := range c.Body {
		nc.Body[i] = cloneAtom(a)
	}
	return nc
}

func cloneAtom(a Atom) Atom {
	na := Atom{Pred: a.Pred, Args: make([]Term, len(a.Args))}
	copy(na.Args, a.Args)
	return na
}

// Query is a conjunctive query: ?- g1, g2, ... gn.
type Query struct {
	Goals []Atom
}

// String renders the query in source syntax.
func (q Query) String() string {
	var buf [64]byte
	b := append(buf[:0], "?- "...)
	for i, a := range q.Goals {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = a.Append(b)
	}
	return string(append(b, '.'))
}

// Vars returns the distinct variables of the query in order of first
// occurrence — the output columns of the answer relation.
func (q Query) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range q.Goals {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	return out
}

// AsClause converts the query into a rule defining the reserved
// predicate "_query" with the query variables as head arguments. The
// knowledge manager compiles this rule like any other.
func (q Query) AsClause() Clause {
	vars := q.Vars()
	head := Atom{Pred: QueryPred, Args: make([]Term, len(vars))}
	for i, v := range vars {
		head.Args[i] = V(v)
	}
	return Clause{Head: head, Body: append([]Atom(nil), q.Goals...)}
}

// QueryPred is the reserved head predicate for compiled queries.
const QueryPred = "_query"

// Program is a parsed unit: clauses and queries in source order.
type Program struct {
	Clauses []Clause
	Queries []Query
}

// Validate checks every clause for range restriction and consistent
// arity per predicate, returning the first problem found.
func (p *Program) Validate() error {
	arity := make(map[string]int)
	check := func(a Atom) error {
		if n, ok := arity[a.Pred]; ok && n != a.Arity() {
			return fmt.Errorf("dlog: predicate %s used with arity %d and %d", a.Pred, n, a.Arity())
		}
		arity[a.Pred] = a.Arity()
		if a.Arity() == 0 {
			return fmt.Errorf("dlog: predicate %s has zero arity", a.Pred)
		}
		return nil
	}
	for _, c := range p.Clauses {
		if !c.RangeRestricted() {
			return fmt.Errorf("dlog: clause %q is not range-restricted", c.String())
		}
		if err := check(c.Head); err != nil {
			return err
		}
		for _, a := range c.Body {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	for _, q := range p.Queries {
		if len(q.Goals) == 0 {
			return fmt.Errorf("dlog: empty query")
		}
		for _, a := range q.Goals {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}

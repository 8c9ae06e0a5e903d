// Package typeinf implements the testbed's Semantic Checker (paper
// §3.2.4): the definedness check (every derived predicate reachable
// from the query has defining rules, every other body predicate is a
// known base relation) and the type-inference algorithm that derives the
// column types of derived predicates from the rules and verifies that
// all rules defining a predicate agree.
package typeinf

import (
	"errors"
	"fmt"

	"dkbms/internal/dlog"
	"dkbms/internal/pcg"
	"dkbms/internal/rel"
)

// ErrUndefined marks definedness failures — a predicate with neither
// defining rules nor a base relation. Callers (the root API, the
// server) classify compilation errors with errors.Is against it.
var ErrUndefined = errors.New("undefined predicate")

// CheckDefined verifies that every reachable predicate is either derived
// (has rules) or a base relation with a known schema: that each of the
// analysis's base predicates has one.
func CheckDefined(a *pcg.Analysis, baseTypes map[string][]rel.Type) error {
	for _, p := range a.BasePreds {
		if _, ok := baseTypes[p]; !ok {
			return fmt.Errorf("typeinf: %w %s: it has no defining rules and is not a base relation", ErrUndefined, p)
		}
	}
	return nil
}

// Infer derives the column types of every derived predicate in the
// evaluation order. baseTypes supplies extensional schemas. The returned
// map contains an entry for each derived predicate in order.
//
// Within a recursive clique the rules are iterated to a fixpoint: types
// only move from unknown to known, so the iteration terminates. A
// conflict (two rules or two body occurrences forcing different types on
// the same column or variable) is an error, as is a column whose type
// remains unknown once the clique stabilizes.
func Infer(order []pcg.Node, baseTypes map[string][]rel.Type) (map[string][]rel.Type, error) {
	return InferHinted(order, baseTypes, nil)
}

// InferHinted is Infer with initial type hints for derived predicates.
// Magic-set seed facts provide such hints: a magic predicate defined
// only by recursive magic rules plus a ground seed gets its column
// types from the seed, which pure rule-driven inference cannot see.
//
// The signatures share one array, each capped at its arity.
func InferHinted(order []pcg.Node, baseTypes map[string][]rel.Type, hints map[string][]rel.Type) (map[string][]rel.Type, error) {
	// A predicate's arity is that of the last rule defining it; a rule
	// of another arity is refused by inferRule.
	arity := func(node *pcg.Node, p string) int {
		n := -1
		for _, rules := range [2][]dlog.Clause{node.ExitRules, node.RecursiveRules} {
			for i := range rules {
				if rules[i].Head.Pred == p {
					n = rules[i].Head.Arity()
				}
			}
		}
		return n
	}
	preds, cols := 0, 0
	for i := range order {
		for _, p := range order[i].Preds {
			preds++
			cols += max(arity(&order[i], p), 0)
		}
	}
	derived := make(map[string][]rel.Type, preds)
	sigs := make([]rel.Type, cols)
	typeOf := func(pred string) []rel.Type {
		if t, ok := baseTypes[pred]; ok {
			return t
		}
		return derived[pred]
	}

	for i := range order {
		node := &order[i]
		// Initialize unknown signatures for the node's predicates using
		// head arities.
		for _, p := range node.Preds {
			n := arity(node, p)
			if n < 0 {
				return nil, fmt.Errorf("typeinf: clique predicate %s has no rules", p)
			}
			derived[p], sigs = sigs[:n:n], sigs[n:]
			if hint, ok := hints[p]; ok {
				if len(hint) != n {
					return nil, fmt.Errorf("typeinf: hint for %s has arity %d, rules have %d", p, len(hint), n)
				}
				copy(derived[p], hint)
			}
		}

		for changed := true; changed; {
			changed = false
			for _, rules := range [2][]dlog.Clause{node.ExitRules, node.RecursiveRules} {
				for _, c := range rules {
					ch, err := inferRule(c, typeOf, derived)
					if err != nil {
						return nil, err
					}
					changed = changed || ch
				}
			}
		}
		for _, p := range node.Preds {
			for i, t := range derived[p] {
				if t == rel.TypeUnknown {
					return nil, fmt.Errorf("typeinf: cannot infer type of column %d of %s", i+1, p)
				}
			}
		}
	}
	return derived, nil
}

// inferRule propagates types through one rule. It reports whether any
// head column type became known.
func inferRule(c dlog.Clause, typeOf func(string) []rel.Type, derived map[string][]rel.Type) (bool, error) {
	vars := make(map[string]rel.Type)
	// Gather variable types from body atoms.
	for _, a := range c.Body {
		sig := typeOf(a.Pred)
		if sig == nil {
			return false, fmt.Errorf("typeinf: %w %s in body of %q", ErrUndefined, a.Pred, c.String())
		}
		if len(sig) != a.Arity() {
			return false, fmt.Errorf("typeinf: %s used with arity %d but has %d columns (in %q)",
				a.Pred, a.Arity(), len(sig), c.String())
		}
		for i, t := range a.Args {
			want := sig[i]
			if t.IsVar() {
				if want == rel.TypeUnknown {
					continue
				}
				if have, ok := vars[t.Var]; ok && have != rel.TypeUnknown && have != want {
					return false, fmt.Errorf("typeinf: variable %s is both %v and %v in %q",
						t.Var, have, want, c.String())
				}
				vars[t.Var] = want
			} else if want != rel.TypeUnknown && t.Val.Kind != want {
				return false, fmt.Errorf("typeinf: constant %s has type %v but column %d of %s is %v (in %q)",
					t.String(), t.Val.Kind, i+1, a.Pred, want, c.String())
			}
		}
	}
	// Propagate to the head.
	sig := derived[c.Head.Pred]
	if sig == nil {
		return false, fmt.Errorf("typeinf: head predicate %s missing from inference state", c.Head.Pred)
	}
	if len(sig) != c.Head.Arity() {
		return false, fmt.Errorf("typeinf: %s defined with arity %d and %d", c.Head.Pred, len(sig), c.Head.Arity())
	}
	changed := false
	for i, t := range c.Head.Args {
		var ty rel.Type
		if t.IsVar() {
			ty = vars[t.Var] // may be unknown this pass
		} else {
			ty = t.Val.Kind
		}
		if ty == rel.TypeUnknown {
			continue
		}
		switch sig[i] {
		case rel.TypeUnknown:
			sig[i] = ty
			changed = true
		case ty:
			// consistent
		default:
			return false, fmt.Errorf("typeinf: rules disagree on column %d of %s: %v vs %v (in %q)",
				i+1, c.Head.Pred, sig[i], ty, c.String())
		}
	}
	return changed, nil
}

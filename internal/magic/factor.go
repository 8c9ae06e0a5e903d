package magic

import (
	"strings"

	"dkbms/internal/dlog"
)

// Rewrite names, reported in Result.Rewrite.
const (
	GeneralizedMagic = "magic sets"
	Factoring        = "factoring"
)

// Factor applies factoring (Naughton, Ramakrishnan, Sagiv & Ullman,
// "Argument reduction by factoring", VLDB 1989) to a bound query on a
// linear recursion, or returns nil when the program is outside the
// class it handles. The class:
//
//   - the query rule (queryPred's only rule) has one body atom p(c̄, Ȳ):
//     constants in the bound positions, distinct variables in the free
//     ones, at least one of each;
//   - every body atom of p's rules is p itself or extensional, so p's
//     clique is {p};
//   - p has at least one exit rule (no p in its body) and at least one
//     recursive rule, each linear in p;
//   - in a recursive rule p(H̄) :- L, p(R̄), each free position holds the
//     same variable in H̄ and R̄, a variable that appears nowhere else in
//     the rule, and every variable of R̄'s bound positions appears in
//     H̄'s bound positions or in L.
//
// Then p(c̄, ȳ) holds exactly when some x̄ reachable from c̄ through the
// recursive rules' L has an exit rule deriving p(x̄, ȳ), and the program
//
//	m(c̄).                             (the seed)
//	m(R̄_b) :- m(H̄_b), L.              (per recursive rule)
//	ans(Ē_f) :- m(Ē_b), exit body.     (per exit rule p(Ē) :- body)
//	queryPred(...) :- ans(Ȳ).
//
// computes it with the reachability set and the answer each at most
// their own size, where generalized magic sets derive p(x̄, Ȳ) for every
// reachable x̄. m and ans take the magic and adorned names of p under
// the query's adornment.
//
// The pass-through case — the bound positions passed unchanged to the
// recursive atom, such as ancestor(X, t9) on a right-linear rule — is
// declined by the free-position condition: there the magic set is the
// seed alone, and generalized magic sets are already linear.
func Factor(rules []dlog.Clause, queryPred string, isDerived func(string) bool) *Result {
	// Most queries are declined; the query rule alone decides many of
	// them, before anything is allocated.
	qi := -1
	for i, c := range rules {
		if c.Head.Pred == queryPred {
			if qi >= 0 {
				return nil
			}
			qi = i
		}
	}
	if qi < 0 || len(rules[qi].Body) != 1 {
		return nil
	}
	query := rules[qi]
	goal := query.Body[0]
	nbound := 0
	for i, t := range goal.Args {
		if !t.IsVar() {
			nbound++
			continue
		}
		for _, u := range goal.Args[:i] {
			if u.IsVar() && u.Var == t.Var {
				return nil
			}
		}
	}
	if nbound == 0 || nbound == len(goal.Args) {
		return nil
	}
	p := goal.Pred
	var defs []dlog.Clause
	for _, c := range rules {
		switch c.Head.Pred {
		case queryPred:
		case p:
			defs = append(defs, c)
		default:
			return nil
		}
	}
	if !isDerived(p) || len(defs) == 0 {
		return nil
	}

	// The adornment: constants bound, variables free.
	var ad strings.Builder
	var seed, free []dlog.Term
	for _, t := range goal.Args {
		if t.IsVar() {
			ad.WriteByte('f')
			free = append(free, t)
		} else {
			ad.WriteByte('b')
			seed = append(seed, t)
		}
	}
	adornment := ad.String()
	ans := AdornedName(p, adornment)
	m := MagicName(ans)
	split := func(a dlog.Atom, pred string, want byte) dlog.Atom {
		out := dlog.Atom{Pred: pred}
		for i, t := range a.Args {
			if adornment[i] == want {
				out.Args = append(out.Args, t)
			}
		}
		return out
	}

	res := &Result{
		Seeds:     []dlog.Atom{{Pred: m, Args: seed}},
		QueryPred: queryPred,
		Rewrite:   Factoring,
	}
	recursive := 0
	for _, c := range defs {
		var rec *dlog.Atom
		var rest []dlog.Atom
		for i, a := range c.Body {
			switch {
			case a.Pred == p && rec == nil:
				rec = &c.Body[i]
			case a.Pred == p || isDerived(a.Pred):
				return nil
			default:
				rest = append(rest, a)
			}
		}
		guard := split(c.Head, m, 'b')
		if rec == nil {
			res.Rules = append(res.Rules, dlog.Clause{
				Head: split(c.Head, ans, 'f'),
				Body: append([]dlog.Atom{guard}, c.Body...),
			})
			continue
		}
		if !factorable(c.Head, *rec, rest, adornment) {
			return nil
		}
		recursive++
		res.Rules = append(res.Rules, dlog.Clause{
			Head: split(*rec, m, 'b'),
			Body: append([]dlog.Atom{guard}, rest...),
		})
	}
	if recursive == 0 || recursive == len(defs) {
		return nil
	}
	res.Rules = append(res.Rules, dlog.Clause{
		Head: query.Head,
		Body: []dlog.Atom{{Pred: ans, Args: free}},
	})
	return res
}

// factorable reports whether the recursive rule head :- rest, rec keeps
// its free positions apart from the reachability step: each free
// position of head and rec holds one variable that occurs nowhere else
// in the rule, and the bound positions of rec are bound by head's bound
// positions or by rest.
func factorable(head, rec dlog.Atom, rest []dlog.Atom, adornment string) bool {
	uses := make(map[string]int)
	count := func(a dlog.Atom) {
		for _, t := range a.Args {
			if t.IsVar() {
				uses[t.Var]++
			}
		}
	}
	count(head)
	count(rec)
	for _, a := range rest {
		count(a)
	}
	bound := make(map[string]bool)
	for i, t := range head.Args {
		if adornment[i] == 'b' && t.IsVar() {
			bound[t.Var] = true
		}
	}
	for _, a := range rest {
		for _, t := range a.Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}
	for i, t := range rec.Args {
		if adornment[i] == 'f' {
			if !t.IsVar() || !head.Args[i].IsVar() || head.Args[i].Var != t.Var || uses[t.Var] != 2 {
				return false
			}
		} else if t.IsVar() && !bound[t.Var] {
			return false
		}
	}
	return true
}

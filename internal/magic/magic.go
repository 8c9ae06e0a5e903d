// Package magic implements the testbed's Optimizer: the generalized
// magic-sets rewriting of Beeri & Ramakrishnan that the paper's
// Knowledge Manager applies to the rules relevant to a query (§3.2.5),
// and factoring (Factor), which replaces it on bound linear recursions.
//
// The rewrite adorns derived predicates with bound/free patterns
// propagated from the query constants using the left-to-right sideways
// information-passing strategy, then generates
//
//   - magic rules, which compute the set of bindings ("relevant facts")
//     the query can actually reach, and
//   - modified rules, the original rules guarded by the magic predicate
//     of their head,
//
// so that the bottom-up LFP computation is restricted to tuples relevant
// to the query. Magic rules whose body is empty and whose head is ground
// surface as Seeds — the initial magic facts.
package magic

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dkbms/internal/dlog"
)

// adornedPrefix and magicPrefix are reserved name fragments. The rule
// parser accepts them in user programs, but the workspace manager
// rejects user predicates that collide (see internal/core).
const (
	// AdornedSep joins a predicate name with its adornment string.
	AdornedSep = "__"
	// MagicPrefix marks magic predicates.
	MagicPrefix = "m_"
)

// Result is the outcome of the rewriting.
type Result struct {
	// Rules is the rewritten program: modified rules plus magic rules,
	// over adorned predicate names.
	Rules []dlog.Clause
	// Seeds are ground magic facts to materialize before evaluation
	// (the query's constant bindings).
	Seeds []dlog.Atom
	// QueryPred is the adorned name of the query predicate to evaluate.
	QueryPred string
	// Adornments records the adornment string chosen for each original
	// predicate occurrence (diagnostics; keyed by adorned name; nil from
	// Factor).
	Adornments map[string]string
	// Rewrite names the rewrite that produced the program:
	// GeneralizedMagic or Factoring.
	Rewrite string
}

// AdornedName returns the rewritten name of pred under an adornment.
func AdornedName(pred, adornment string) string {
	return pred + AdornedSep + adornment
}

// MagicName returns the magic predicate name for an adorned predicate.
func MagicName(adornedPred string) string { return MagicPrefix + adornedPred }

// Rewrite applies generalized magic sets to the rule set for the given
// query predicate (typically dlog.QueryPred, whose single defining rule
// carries the query constants in its body). isDerived classifies body
// predicates; everything else is extensional and left untouched.
//
// If the query rule contains no constants anywhere (nothing to bind),
// the rewrite degenerates to the identity; callers should then evaluate
// the original rules. This is reported via ErrNoBindings.
func Rewrite(rules []dlog.Clause, queryPred string, isDerived func(string) bool) (*Result, error) {
	// If the relevant rules carry no constants at all there is nothing
	// for sideways information passing to restrict: the rewrite would
	// only add magic bookkeeping. Report identity before building any.
	if !hasConstants(rules) {
		return nil, ErrNoBindings
	}
	byHead := make(map[string][]dlog.Clause)
	for _, c := range rules {
		byHead[c.Head.Pred] = append(byHead[c.Head.Pred], c)
	}
	if len(byHead[queryPred]) == 0 {
		return nil, fmt.Errorf("magic: no rules define query predicate %s", queryPred)
	}

	// The query predicate starts all-free: its arguments are the output
	// variables. Bindings enter through constants in rule bodies.
	res := &Result{Adornments: make(map[string]string), Rewrite: GeneralizedMagic}

	type adorned struct {
		pred string
		ad   string
	}
	queryAd := strings.Repeat("f", byHead[queryPred][0].Head.Arity())
	work := []adorned{{pred: queryPred, ad: queryAd}}
	done := map[adorned]bool{}
	res.QueryPred = AdornedName(queryPred, queryAd)

	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		if done[cur] {
			continue
		}
		done[cur] = true
		res.Adornments[AdornedName(cur.pred, cur.ad)] = cur.ad

		for _, c := range byHead[cur.pred] {
			if len(c.Body) == 0 {
				return nil, fmt.Errorf("magic: predicate %s mixes rules and facts; normalize first (clause %q)",
					cur.pred, c.String())
			}
			modified, magics, newAdorned, err := rewriteRule(c, cur.ad, isDerived)
			if err != nil {
				return nil, err
			}
			res.Rules = append(res.Rules, modified)
			for _, m := range magics {
				if len(m.Body) == 0 {
					if !m.Head.IsGround() {
						return nil, fmt.Errorf("magic: non-ground seed %s", m.Head.String())
					}
					res.Seeds = append(res.Seeds, m.Head)
				} else {
					res.Rules = append(res.Rules, m)
				}
			}
			for _, na := range newAdorned {
				work = append(work, adorned{pred: na.pred, ad: na.ad})
			}
		}
	}

	dedupeSeeds(res)
	return res, nil
}

// hasConstants reports whether any atom of the rules, head or body, has
// a constant argument.
func hasConstants(rules []dlog.Clause) bool {
	for _, c := range rules {
		if slices.ContainsFunc(c.Head.Args, isConst) {
			return true
		}
		for _, a := range c.Body {
			if slices.ContainsFunc(a.Args, isConst) {
				return true
			}
		}
	}
	return false
}

func isConst(t dlog.Term) bool { return !t.IsVar() }

// ErrNoBindings reports that the query carries no constant bindings, so
// magic-sets rewriting cannot restrict anything.
var ErrNoBindings = fmt.Errorf("magic: query has no constant bindings; rewrite is the identity")

type newAdornment struct {
	pred string
	ad   string
}

// rewriteRule adorns one rule under the head adornment headAd and emits
// the modified rule plus one magic rule per derived body atom with at
// least one bound argument.
func rewriteRule(c dlog.Clause, headAd string, isDerived func(string) bool) (dlog.Clause, []dlog.Clause, []newAdornment, error) {
	if len(headAd) != c.Head.Arity() {
		return dlog.Clause{}, nil, nil, fmt.Errorf("magic: adornment %s does not match arity of %s", headAd, c.Head.String())
	}
	bound := make(map[string]bool)
	var headBoundArgs []dlog.Term
	for i, t := range c.Head.Args {
		if headAd[i] == 'b' {
			headBoundArgs = append(headBoundArgs, t)
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}

	adornedHead := dlog.Atom{Pred: AdornedName(c.Head.Pred, headAd), Args: c.Head.Args}
	magicHeadName := MagicName(adornedHead.Pred)

	var newBody []dlog.Atom
	var magicRules []dlog.Clause
	var discovered []newAdornment

	// The magic guard of the head (dropped when the head has no bound
	// positions).
	var guard []dlog.Atom
	if len(headBoundArgs) > 0 {
		guard = []dlog.Atom{{Pred: magicHeadName, Args: headBoundArgs}}
	}

	// prefix holds the adorned body atoms processed so far (for magic
	// rule bodies, per left-to-right SIP).
	var prefix []dlog.Atom
	for _, a := range c.Body {
		if !isDerived(a.Pred) {
			// Extensional atom: pass through; all its variables become
			// bound after evaluation.
			newBody = append(newBody, a)
			prefix = append(prefix, a)
			for _, t := range a.Args {
				if t.IsVar() {
					bound[t.Var] = true
				}
			}
			continue
		}
		// Derived atom: compute its adornment from current bindings.
		var ad strings.Builder
		var boundArgs []dlog.Term
		for _, t := range a.Args {
			if !t.IsVar() || bound[t.Var] {
				ad.WriteByte('b')
				boundArgs = append(boundArgs, t)
			} else {
				ad.WriteByte('f')
			}
		}
		adName := AdornedName(a.Pred, ad.String())
		discovered = append(discovered, newAdornment{pred: a.Pred, ad: ad.String()})
		if len(boundArgs) > 0 {
			magicBody := append(append([]dlog.Atom(nil), guard...), prefix...)
			magicRules = append(magicRules, dlog.Clause{
				Head: dlog.Atom{Pred: MagicName(adName), Args: boundArgs},
				Body: magicBody,
			})
		}
		adAtom := dlog.Atom{Pred: adName, Args: a.Args}
		newBody = append(newBody, adAtom)
		prefix = append(prefix, adAtom)
		for _, t := range a.Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
	}

	modified := dlog.Clause{
		Head: adornedHead,
		Body: append(append([]dlog.Atom(nil), guard...), newBody...),
	}
	return modified, magicRules, discovered, nil
}

func dedupeSeeds(res *Result) {
	seen := make(map[string]bool)
	var out []dlog.Atom
	for _, s := range res.Seeds {
		k := s.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	res.Seeds = out
}

package dkbms

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dkbms/internal/dlog"
	"dkbms/internal/rel"
)

// refEval is a reference Datalog interpreter: naive bottom-up over Go
// maps, structurally unrelated to the engine under test. It computes
// the full model of the program over the given facts.
func refEval(rules []dlog.Clause, facts map[string][]rel.Tuple) map[string]map[string]rel.Tuple {
	model := make(map[string]map[string]rel.Tuple)
	add := func(pred string, tu rel.Tuple) bool {
		m := model[pred]
		if m == nil {
			m = make(map[string]rel.Tuple)
			model[pred] = m
		}
		k := tu.Key()
		if _, ok := m[k]; ok {
			return false
		}
		m[k] = tu
		return true
	}
	for pred, ts := range facts {
		for _, tu := range ts {
			add(pred, tu)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range rules {
			for _, binding := range matchBody(c.Body, model, map[string]rel.Value{}) {
				head := make(rel.Tuple, len(c.Head.Args))
				ok := true
				for i, t := range c.Head.Args {
					if t.IsVar() {
						v, bound := binding[t.Var]
						if !bound {
							ok = false
							break
						}
						head[i] = v
					} else {
						head[i] = t.Val
					}
				}
				if ok && add(c.Head.Pred, head) {
					changed = true
				}
			}
		}
	}
	return model
}

// matchBody enumerates variable bindings satisfying the body atoms
// left to right.
func matchBody(body []dlog.Atom, model map[string]map[string]rel.Tuple, binding map[string]rel.Value) []map[string]rel.Value {
	if len(body) == 0 {
		cp := make(map[string]rel.Value, len(binding))
		for k, v := range binding {
			cp[k] = v
		}
		return []map[string]rel.Value{cp}
	}
	var out []map[string]rel.Value
	a := body[0]
	for _, tu := range model[a.Pred] {
		ok := true
		newVars := []string{}
		for i, t := range a.Args {
			if t.IsVar() {
				if v, bound := binding[t.Var]; bound {
					if !rel.Equal(v, tu[i]) {
						ok = false
						break
					}
				} else {
					binding[t.Var] = tu[i]
					newVars = append(newVars, t.Var)
				}
			} else if !rel.Equal(t.Val, tu[i]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, matchBody(body[1:], model, binding)...)
		}
		for _, v := range newVars {
			delete(binding, v)
		}
	}
	return out
}

// refAnswer evaluates a query against the reference model.
func refAnswer(q dlog.Query, rules []dlog.Clause, facts map[string][]rel.Tuple) []string {
	all := append([]dlog.Clause{q.AsClause()}, rules...)
	model := refEval(all, facts)
	var out []string
	for _, tu := range model[dlog.QueryPred] {
		out = append(out, tu.String())
	}
	sort.Strings(out)
	return out
}

// genProgram builds a random Datalog program over nBase base and nDeriv
// derived binary predicates, with all-string columns (avoiding type
// conflicts by construction) and range-restricted rules.
func genProgram(r *rand.Rand, nBase, nDeriv int) ([]dlog.Clause, map[string][]rel.Tuple) {
	basePred := func(i int) string { return fmt.Sprintf("e%d", i) }
	derivPred := func(i int) string { return fmt.Sprintf("p%d", i) }
	consts := []string{"a", "b", "c", "d", "g", "h"}

	facts := make(map[string][]rel.Tuple)
	for i := 0; i < nBase; i++ {
		n := 3 + r.Intn(6)
		seen := map[string]bool{}
		for j := 0; j < n; j++ {
			tu := rel.Tuple{
				rel.NewString(consts[r.Intn(len(consts))]),
				rel.NewString(consts[r.Intn(len(consts))]),
			}
			if !seen[tu.Key()] {
				seen[tu.Key()] = true
				facts[basePred(i)] = append(facts[basePred(i)], tu)
			}
		}
	}

	vars := []string{"X", "Y", "Z", "W"}
	var rules []dlog.Clause
	for i := 0; i < nDeriv; i++ {
		nRules := 1 + r.Intn(2)
		// First rule is non-recursive (references only base preds and
		// earlier derived preds) so every clique has an exit and types
		// are always inferable.
		for ri := 0; ri <= nRules; ri++ {
			nAtoms := 1 + r.Intn(2)
			var body []dlog.Atom
			for ai := 0; ai < nAtoms; ai++ {
				var pred string
				if ri == 0 {
					if i > 0 && r.Intn(3) == 0 {
						pred = derivPred(r.Intn(i))
					} else {
						pred = basePred(r.Intn(nBase))
					}
				} else {
					// Later rules may recurse on any derived pred.
					if r.Intn(2) == 0 {
						pred = derivPred(r.Intn(i + 1))
					} else {
						pred = basePred(r.Intn(nBase))
					}
				}
				args := make([]dlog.Term, 2)
				for k := range args {
					if r.Intn(5) == 0 {
						args[k] = dlog.CStr(consts[r.Intn(len(consts))])
					} else {
						args[k] = dlog.V(vars[r.Intn(len(vars))])
					}
				}
				body = append(body, dlog.Atom{Pred: pred, Args: args})
			}
			// Head vars drawn from body vars (range restriction).
			var bodyVars []string
			seen := map[string]bool{}
			for _, a := range body {
				for _, t := range a.Args {
					if t.IsVar() && !seen[t.Var] {
						seen[t.Var] = true
						bodyVars = append(bodyVars, t.Var)
					}
				}
			}
			head := dlog.Atom{Pred: derivPred(i), Args: make([]dlog.Term, 2)}
			for k := range head.Args {
				if len(bodyVars) == 0 || r.Intn(6) == 0 {
					head.Args[k] = dlog.CStr(consts[r.Intn(len(consts))])
				} else {
					head.Args[k] = dlog.V(bodyVars[r.Intn(len(bodyVars))])
				}
			}
			rules = append(rules, dlog.Clause{Head: head, Body: body})
		}
	}
	return rules, facts
}

// TestRandomProgramsAgainstReference cross-checks all four engine modes
// against the reference interpreter on random programs and queries.
func TestRandomProgramsAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(20260704))
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		rules, facts := genProgram(r, 2, 1+r.Intn(3))
		// Query: random derived pred, first arg bound to a constant in
		// half the trials.
		target := rules[r.Intn(len(rules))].Head.Pred
		var q dlog.Query
		if r.Intn(2) == 0 {
			q = dlog.Query{Goals: []dlog.Atom{{
				Pred: target,
				Args: []dlog.Term{dlog.CStr("a"), dlog.V("OUT")},
			}}}
		} else {
			q = dlog.Query{Goals: []dlog.Atom{{
				Pred: target,
				Args: []dlog.Term{dlog.V("O1"), dlog.V("O2")},
			}}}
		}

		want := refAnswer(q, rules, facts)

		tb := NewMemory()
		for pred, ts := range facts {
			if err := tb.AssertTuples(pred, ts); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range rules {
			if err := tb.Workspace().AddClause(c); err != nil {
				t.Fatal(err)
			}
		}
		// Every mode twice: over bare heaps, then with a B+tree on a
		// random column of each base relation, so that the join orders
		// and index joins the planner's cost model picks are held to the
		// reference too. (Its own source, like the step below.)
		ixRng := rand.New(rand.NewSource(int64(trial)))
		for _, indexed := range []bool{false, true} {
			if indexed {
				preds := make([]string, 0, len(facts))
				for pred := range facts {
					preds = append(preds, pred)
				}
				sort.Strings(preds)
				for _, pred := range preds {
					if err := tb.CreateFactIndex(pred, ixRng.Intn(len(facts[pred][0]))); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, mode := range allModes {
				opts := mode.opts
				res, err := tb.Query(q.String(), &opts)
				if err != nil {
					t.Fatalf("trial %d %s indexed=%v: %v\nprogram:\n%s\nquery: %s",
						trial, mode.name, indexed, err, programText(rules), q.String())
				}
				got := rowSet(res.Rows)
				if strings.Join(got, "|") != strings.Join(want, "|") {
					t.Fatalf("trial %d %s indexed=%v: engine disagrees with reference\nprogram:\n%s\nquery: %s\n got: %v\nwant: %v",
						trial, mode.name, indexed, programText(rules), q.String(), got, want)
				}
			}
		}
		tb.Close()
		// Its own source: the programs above stay the ones generated
		// before this step existed.
		maintainedAgainstReference(t, rand.New(rand.NewSource(int64(trial))), trial, rules, facts, q)
	}
}

// maintainedAgainstReference runs one random program on a pooled
// ConcurrentTestbed, Parallel off and on (so independent cliques really
// run as a wavefront on the pool), cold and re-queried, then loads one
// random fact and retracts one, both on base relations the query
// depends on: after each commit both memoized answers must be served as
// maintained — the fixpoint driver absorbing the insert, then finding
// the deletion candidates — and equal the reference on the updated fact
// set.
func maintainedAgainstReference(t *testing.T, r *rand.Rand, trial int, rules []dlog.Clause, facts map[string][]rel.Tuple, q dlog.Query) {
	t.Helper()
	tb := NewMemory()
	for pred, ts := range facts {
		if err := tb.AssertTuples(pred, ts); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range rules {
		if err := tb.Workspace().AddClause(c); err != nil {
			t.Fatal(err)
		}
	}
	c := NewConcurrent(tb)
	defer c.Close()

	// Base predicates the query reaches through the rules, sorted.
	reach := map[string]bool{q.Goals[0].Pred: true}
	for grew := true; grew; {
		grew = false
		for _, cl := range rules {
			for _, a := range cl.Body {
				if reach[cl.Head.Pred] && !reach[a.Pred] {
					reach[a.Pred], grew = true, true
				}
			}
		}
	}
	var bases []string
	for pred := range facts {
		if reach[pred] {
			bases = append(bases, pred)
		}
	}
	sort.Strings(bases)

	now := make(map[string][]rel.Tuple, len(facts))
	for pred, ts := range facts {
		now[pred] = append([]rel.Tuple(nil), ts...)
	}
	check := func(step string, wantCache string) {
		t.Helper()
		want := refAnswer(q, rules, now)
		for _, par := range []bool{false, true} {
			res, err := c.Query(q.String(), &QueryOptions{Parallel: par})
			if err != nil {
				t.Fatalf("trial %d %s parallel=%v: %v\nprogram:\n%s\nquery: %s",
					trial, step, par, err, programText(rules), q.String())
			}
			if wantCache != "" && res.Cache != wantCache {
				t.Fatalf("trial %d %s parallel=%v: cache=%q, want %q\nprogram:\n%s\nquery: %s",
					trial, step, par, res.Cache, wantCache, programText(rules), q.String())
			}
			if got := rowSet(res.Rows); strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("trial %d %s parallel=%v: engine disagrees with reference\nprogram:\n%s\nquery: %s\n got: %v\nwant: %v",
					trial, step, par, programText(rules), q.String(), got, want)
			}
		}
	}
	check("cold", "")

	// Re-querying the same text compiles nothing and serves the memo.
	misses := c.PlanStats().Misses
	check("requery", "result")
	if got := c.PlanStats().Misses; got != misses {
		t.Fatalf("trial %d: re-querying the same text compiled (misses %d -> %d)", trial, misses, got)
	}

	consts := []string{"a", "b", "c", "d", "g", "h", "k"}
	pred := bases[r.Intn(len(bases))]
	var fresh rel.Tuple
	for dup := true; dup; {
		fresh = rel.Tuple{rel.NewString(consts[r.Intn(len(consts))]), rel.NewString(consts[r.Intn(len(consts))])}
		dup = false
		for _, tu := range now[pred] {
			dup = dup || tu.Key() == fresh.Key()
		}
	}
	if err := c.Load(fmt.Sprintf("%s(%s, %s).", pred, fresh[0].Str, fresh[1].Str)); err != nil {
		t.Fatal(err)
	}
	now[pred] = append(now[pred], fresh)
	check("load "+pred+fresh.String(), "maintained")

	pred = bases[r.Intn(len(bases))]
	i := r.Intn(len(now[pred]))
	gone := now[pred][i]
	if n, err := c.RetractSrc(fmt.Sprintf("%s(%s, %s)", pred, gone[0].Str, gone[1].Str)); err != nil || n != 1 {
		t.Fatalf("trial %d retract %s%s: %d, %v", trial, pred, gone.String(), n, err)
	}
	now[pred] = append(now[pred][:i], now[pred][i+1:]...)
	check("retract "+pred+gone.String(), "maintained")
}

// TestMixedCaseProgramAgainstReference is one generated program with
// every predicate renamed to mixed case (e0 → eRel0, p1 → pRel1) and,
// beside each base relation, a twin whose name differs from it only in
// case and which holds other facts: all modes, then the maintained
// path, against the reference. An engine that let SQL's case folding
// merge the twins' tables would answer with their facts too.
func TestMixedCaseProgramAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(19880601))
	lower, lowerFacts := genProgram(r, 2, 3)
	mixed := func(pred string) string { return pred[:1] + "Rel" + pred[1:] }
	atom := func(a dlog.Atom) dlog.Atom { return dlog.Atom{Pred: mixed(a.Pred), Args: a.Args} }
	rules := make([]dlog.Clause, len(lower))
	for i, c := range lower {
		rules[i].Head = atom(c.Head)
		for _, a := range c.Body {
			rules[i].Body = append(rules[i].Body, atom(a))
		}
	}
	facts := make(map[string][]rel.Tuple)
	for pred, ts := range lowerFacts {
		facts[mixed(pred)] = ts
		facts[strings.ToLower(mixed(pred))] = []rel.Tuple{{rel.NewString("a"), rel.NewString("twin")}}
	}
	q := dlog.Query{Goals: []dlog.Atom{{
		Pred: rules[len(rules)-1].Head.Pred,
		Args: []dlog.Term{dlog.V("O1"), dlog.V("O2")},
	}}}
	want := refAnswer(q, rules, facts)
	if len(want) == 0 {
		t.Fatal("generated program derives nothing: pick another seed")
	}

	tb := NewMemory()
	defer tb.Close()
	for pred, ts := range facts {
		if err := tb.AssertTuples(pred, ts); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range rules {
		if err := tb.Workspace().AddClause(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range allModes {
		opts := mode.opts
		res, err := tb.Query(q.String(), &opts)
		if err != nil {
			t.Fatalf("%s: %v\nprogram:\n%s\nquery: %s", mode.name, err, programText(rules), q.String())
		}
		if got := rowSet(res.Rows); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("%s: engine disagrees with reference\nprogram:\n%s\nquery: %s\n got: %v\nwant: %v",
				mode.name, programText(rules), q.String(), got, want)
		}
	}
	maintainedAgainstReference(t, rand.New(rand.NewSource(1)), 0, rules, facts, q)
}

func programText(rules []dlog.Clause) string {
	var b strings.Builder
	for _, c := range rules {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRandomChainUpdatesAgainstReference drives random incremental
// stored-D/KB updates and re-checks query answers after each commit.
func TestRandomChainUpdatesAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tb := NewMemory()
	defer tb.Close()
	facts := map[string][]rel.Tuple{
		"e0": {
			{rel.NewString("a"), rel.NewString("b")},
			{rel.NewString("b"), rel.NewString("c")},
			{rel.NewString("c"), rel.NewString("d")},
			{rel.NewString("a"), rel.NewString("d")},
		},
	}
	for pred, ts := range facts {
		if err := tb.AssertTuples(pred, ts); err != nil {
			t.Fatal(err)
		}
	}
	var committed []dlog.Clause
	addRule := func(src string) {
		c := dlog.MustParseClause(src)
		committed = append(committed, c)
		if err := tb.Workspace().AddClause(c); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Update(); err != nil {
			t.Fatal(err)
		}
	}
	addRule("p0(X, Y) :- e0(X, Y).")
	addRule("p0(X, Y) :- e0(X, Z), p0(Z, Y).")
	for i := 1; i <= 5; i++ {
		// Build on a random earlier predicate.
		prev := fmt.Sprintf("p%d", r.Intn(i))
		addRule(fmt.Sprintf("p%d(X, Y) :- %s(Y, X).", i, prev))

		q := dlog.Query{Goals: []dlog.Atom{{
			Pred: fmt.Sprintf("p%d", i),
			Args: []dlog.Term{dlog.V("A"), dlog.V("B")},
		}}}
		want := refAnswer(q, committed, facts)
		res, err := tb.Query(q.String(), nil)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if strings.Join(rowSet(res.Rows), "|") != strings.Join(want, "|") {
			t.Fatalf("step %d: engine %v, reference %v", i, rowSet(res.Rows), want)
		}
	}
}

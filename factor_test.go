package dkbms

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dkbms/internal/core"
	"dkbms/internal/dlog"
	"dkbms/internal/magic"
	"dkbms/internal/rel"
)

// compileMagic compiles a query with generalized magic sets forced
// where the Optimizer would factor, as internal/bench's runQuery does.
func compileMagic(t testing.TB, tb *Testbed, src string, opts *QueryOptions) *core.Compiled {
	t.Helper()
	q, err := dlog.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	cp := &core.Compiler{WS: tb.Workspace(), DB: tb.DB(), Stored: tb.Stored()}
	compiled, err := cp.Compile(q, core.CompileOptions{Optimize: !opts.NoOptimize, ForceMagic: true})
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

// queryMagic runs a query compiled by compileMagic: the pins of what the
// paper's experiments measure hold the paper's rewrite.
func queryMagic(t testing.TB, tb *Testbed, src string, opts *QueryOptions) *QueryResult {
	t.Helper()
	res, err := tb.Evaluate(compileMagic(t, tb, src, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// intner is the generator's source of choices: a *rand.Rand, or fuzz
// input (fuzzChoices).
type intner interface{ Intn(n int) int }

// genLinearProgram builds a linear recursion p(K̄, X, Y) over a base
// relation e(K̄, X, Y), with 0–2 extra key columns K̄ and a second base
// relation g(X, Y), and a query on it. The recursion is right-linear or
// left-linear; one or two exit rules and one or two recursive rules
// each step from X to Y through one atom of e or two (e then g, or g
// then e). The
// query binds the keys and the end the recursion starts from to those
// of one e fact — the class magic.Factor accepts — except in one trial
// in six, where it binds the other end (the pass-through adornment),
// and one in six, where it binds nothing: both are declined.
func genLinearProgram(r intner) ([]dlog.Clause, map[string][]rel.Tuple, dlog.Query) {
	nodes := []string{"a", "b", "c", "d", "g", "h"}
	keys := []string{"a", "b"}
	k := r.Intn(3)
	str := func(vals []string) rel.Value { return rel.NewString(vals[r.Intn(len(vals))]) }
	facts := make(map[string][]rel.Tuple)
	addFacts := func(pred string, n int, cols func() rel.Tuple) {
		seen := make(map[string]bool)
		for range n {
			if tu := cols(); !seen[tu.Key()] {
				seen[tu.Key()] = true
				facts[pred] = append(facts[pred], tu)
			}
		}
	}
	addFacts("e", 6+r.Intn(9), func() rel.Tuple {
		tu := make(rel.Tuple, k+2)
		for i := range k {
			tu[i] = str(keys)
		}
		tu[k], tu[k+1] = str(nodes), str(nodes)
		return tu
	})
	addFacts("g", 3+r.Intn(5), func() rel.Tuple { return rel.Tuple{str(nodes), str(nodes)} })

	keyVars := make([]dlog.Term, k)
	for i := range keyVars {
		keyVars[i] = dlog.V(fmt.Sprintf("K%d", i+1))
	}
	atom := func(pred string, prefix []dlog.Term, args ...string) dlog.Atom {
		a := dlog.Atom{Pred: pred, Args: append([]dlog.Term(nil), prefix...)}
		for _, v := range args {
			a.Args = append(a.Args, dlog.V(v))
		}
		return a
	}
	step := func(from, to string) []dlog.Atom {
		switch r.Intn(3) {
		case 0:
			return []dlog.Atom{atom("e", keyVars, from, "W"), atom("g", nil, "W", to)}
		case 1:
			return []dlog.Atom{atom("g", nil, from, "W"), atom("e", keyVars, "W", to)}
		}
		return []dlog.Atom{atom("e", keyVars, from, to)}
	}
	head := atom("p", keyVars, "X", "Y")
	var rules []dlog.Clause
	for range 1 + r.Intn(2) {
		rules = append(rules, dlog.Clause{Head: head, Body: step("X", "Y")})
	}
	right := r.Intn(2) == 0
	for range 1 + r.Intn(2) {
		if right {
			rules = append(rules, dlog.Clause{Head: head, Body: append(step("X", "Z"), atom("p", keyVars, "Z", "Y"))})
		} else {
			rules = append(rules, dlog.Clause{Head: head, Body: append([]dlog.Atom{atom("p", keyVars, "X", "Z")}, step("Z", "Y")...)})
		}
	}

	// The bound constants are one fact of e's keys and one of its ends,
	// so that the answer is rarely empty. The recursion starts from X
	// when right-linear, from Y when left-linear; the pass-through
	// adornment binds the other end.
	goal := dlog.Atom{Pred: "p"}
	mode := r.Intn(6)
	from := facts["e"][r.Intn(len(facts["e"]))]
	for i := range k {
		if mode == 1 {
			goal.Args = append(goal.Args, dlog.V(fmt.Sprintf("Q%d", i+1)))
		} else {
			goal.Args = append(goal.Args, dlog.C(from[i]))
		}
	}
	out := dlog.V("OUT")
	switch {
	case mode == 1:
		goal.Args = append(goal.Args, dlog.V("IN"), out)
	case right == (mode != 0):
		goal.Args = append(goal.Args, dlog.C(from[k]), out)
	default:
		goal.Args = append(goal.Args, out, dlog.C(from[k+1]))
	}
	return rules, facts, dlog.Query{Goals: []dlog.Atom{goal}}
}

// loadProgram asserts facts and adds rules to a fresh in-memory testbed.
func loadProgram(t testing.TB, rules []dlog.Clause, facts map[string][]rel.Tuple) *Testbed {
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
	return tb
}

// TestFactoredProgramsAgainstReference is the strategy axis: every
// generated linear recursion runs in every mode twice — as the
// Optimizer compiles it (factored where magic.Factor accepts it) and
// with generalized magic sets forced — and both must equal the
// reference; then the served path, factored, answers equal to the
// reference through a load and a retract. The
// rewrite must accept at least half the trials, so the axis cannot pass
// without factoring anything.
func TestFactoredProgramsAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(19890822))
	trials := 60
	if testing.Short() {
		trials = 10
	}
	factored := 0
	for trial := range trials {
		rules, facts, q := genLinearProgram(r)
		want := strings.Join(refAnswer(q, rules, facts), "|")
		tb := loadProgram(t, rules, facts)
		compiled, err := tb.Compile(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if compiled.Rewrite == magic.Factoring {
			factored++
		}
		for _, mode := range allModes {
			opts := mode.opts
			res, err := tb.Query(q.String(), &opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v\nprogram:\n%s\nquery: %s", trial, mode.name, err, programText(rules), q.String())
			}
			forced := queryMagic(t, tb, q.String(), &opts)
			for name, rows := range map[string][]rel.Tuple{"default": res.Rows, "forced magic": forced.Rows} {
				if got := strings.Join(rowSet(rows), "|"); got != want {
					t.Fatalf("trial %d %s %s (rewrite %q): engine disagrees with reference\nprogram:\n%s\nquery: %s\n got: %v\nwant: %v",
						trial, mode.name, name, compiled.Rewrite, programText(rules), q.String(), got, want)
				}
			}
		}
		tb.Close()
		maintainedAgainstReference(t, rand.New(rand.NewSource(int64(trial))), trial, rules, facts, q)
	}
	t.Logf("factored %d of %d trials", factored, trials)
	if factored*2 < trials {
		t.Fatalf("the rewrite accepted %d of %d generated programs, want at least half", factored, trials)
	}
}

// TestDeclinedProgramsCompileAsMagic: a program outside factoring's
// class compiles, by default, to exactly what generalized magic sets
// compile it to.
func TestDeclinedProgramsCompileAsMagic(t *testing.T) {
	tb := familyTB(t)
	tb.MustLoad(`
special(X) :- ancestor(mary, X).
sg(X, Y) :- parent(P, X), parent(P, Y).
sg(X, Y) :- parent(XP, X), sg(XP, YP), parent(YP, Y).
odd(X, Y) :- parent(X, Y).
odd(X, Y) :- parent(X, Z), even(Z, Y).
even(X, Y) :- parent(X, Z), odd(Z, Y).
`)
	for _, q := range []string{
		"?- sg(ann, W).",
		"?- ancestor(A, D).",
		"?- ancestor(X, tom).",
		"?- odd(john, W).",
		"?- special(X).",
	} {
		query, err := dlog.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		def, err := tb.Compile(query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if def.Rewrite == magic.Factoring {
			t.Errorf("%s: factored", q)
		}
		if got, want := def.Program.Explain(), compileMagic(t, tb, q, &QueryOptions{}).Program.Explain(); got != want {
			t.Errorf("%s: declined program differs from generalized magic sets':\n got %s\nwant %s", q, got, want)
		}
	}
}

// fuzzChoices feeds genLinearProgram from fuzz input, one byte per
// choice, and chooses 0 once the input is spent.
type fuzzChoices []byte

func (b *fuzzChoices) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// FuzzFactoredAgainstMagic: whenever magic.Factor accepts a generated
// linear program, its answers equal those under generalized magic sets.
// The seed corpus (testdata/fuzz) is the choices genLinearProgram drew
// from math/rand for some accepted programs and some declined ones.
func FuzzFactoredAgainstMagic(f *testing.F) {
	f.Fuzz(func(t *testing.T, choices []byte) {
		in := fuzzChoices(choices)
		rules, facts, q := genLinearProgram(&in)
		tb := loadProgram(t, rules, facts)
		defer tb.Close()
		compiled, err := tb.Compile(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if compiled.Rewrite != magic.Factoring {
			return
		}
		got, err := tb.Evaluate(compiled, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := queryMagic(t, tb, q.String(), &QueryOptions{})
		if g, w := strings.Join(rowSet(got.Rows), "|"), strings.Join(rowSet(want.Rows), "|"); g != w {
			t.Fatalf("factored answers differ from generalized magic sets'\nprogram:\n%s\nquery: %s\n got: %v\nwant: %v",
				programText(rules), q.String(), g, w)
		}
	})
}

package magic

import (
	"strings"
	"testing"
)

func TestFactorEmitsReachabilityAndAnswer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rules   []string
		derived []string
		seed    string
		want    []string
	}{
		{
			name: "right-linear, first argument bound",
			rules: []string{
				"_query(Y) :- anc(john, Y).",
				"anc(X, Y) :- parent(X, Y).",
				"anc(X, Y) :- parent(X, Z), anc(Z, Y).",
			},
			derived: []string{"_query", "anc"},
			seed:    "m_anc__bf(john)",
			want: []string{
				"anc__bf(Y) :- m_anc__bf(X), parent(X, Y).",
				"m_anc__bf(Z) :- m_anc__bf(X), parent(X, Z).",
				"_query(Y) :- anc__bf(Y).",
			},
		},
		{
			name: "left-linear, second argument bound",
			rules: []string{
				"_query(X) :- anc(X, ann).",
				"anc(X, Y) :- parent(X, Y).",
				"anc(X, Y) :- anc(X, Z), parent(Z, Y).",
			},
			derived: []string{"_query", "anc"},
			seed:    "m_anc__fb(ann)",
			want: []string{
				"anc__fb(X) :- m_anc__fb(Y), parent(X, Y).",
				"m_anc__fb(Z) :- m_anc__fb(Y), parent(Z, Y).",
				"_query(X) :- anc__fb(X).",
			},
		},
		{
			name: "an extra bound column, two-atom bodies",
			rules: []string{
				"_query(Y) :- r(k, a, Y).",
				"r(K, X, Y) :- e(K, X, Y), ok(Y).",
				"r(K, X, Y) :- e(K, X, Z), ok(Z), r(K, Z, Y).",
			},
			derived: []string{"_query", "r"},
			seed:    "m_r__bbf(k, a)",
			want: []string{
				"r__bbf(Y) :- m_r__bbf(K, X), e(K, X, Y), ok(Y).",
				"m_r__bbf(K, Z) :- m_r__bbf(K, X), e(K, X, Z), ok(Z).",
				"_query(Y) :- r__bbf(Y).",
			},
		},
	} {
		res := Factor(clauses(tc.rules...), "_query", derivedSet(tc.derived...))
		if res == nil {
			t.Errorf("%s: declined", tc.name)
			continue
		}
		if res.Rewrite != Factoring || res.QueryPred != "_query" {
			t.Errorf("%s: rewrite %q, query pred %s", tc.name, res.Rewrite, res.QueryPred)
		}
		if len(res.Seeds) != 1 || res.Seeds[0].String() != tc.seed {
			t.Errorf("%s: seeds %v, want %s", tc.name, res.Seeds, tc.seed)
		}
		if got := strings.Join(ruleStrings(res.Rules), "\n"); got != strings.Join(tc.want, "\n") {
			t.Errorf("%s: emitted\n%s\nwant\n%s", tc.name, got, strings.Join(tc.want, "\n"))
		}
	}
}

// TestFactorDeclines: every program outside the class is left to
// generalized magic sets.
func TestFactorDeclines(t *testing.T) {
	right := []string{
		"anc(X, Y) :- parent(X, Y).",
		"anc(X, Y) :- parent(X, Z), anc(Z, Y).",
	}
	for _, tc := range []struct {
		name    string
		rules   []string
		derived []string
	}{
		{"unbound query", append([]string{"_query(A, B) :- anc(A, B)."}, right...), []string{"_query", "anc"}},
		{"pass-through adornment", append([]string{"_query(A) :- anc(A, t9)."}, right...), []string{"_query", "anc"}},
		{"repeated query variable", []string{
			"_query(A) :- r(k, A, A).",
			"r(K, X, Y) :- e(K, X, Y).",
			"r(K, X, Y) :- e(K, X, Z), r(K, Z, Y).",
		}, []string{"_query", "r"}},
		{"conjunctive query", append([]string{"_query(A) :- anc(john, A), parent(A, mary)."}, right...), []string{"_query", "anc"}},
		{"constant only in a rule body", append([]string{
			"_query(A) :- special(A).",
			"special(X) :- anc(mary, X).",
		}, right...), []string{"_query", "special", "anc"}},
		{"same generation", []string{
			"_query(Y) :- sg(c, Y).",
			"sg(X, Y) :- parent(P, X), parent(P, Y).",
			"sg(X, Y) :- parent(XP, X), sg(XP, YP), parent(YP, Y).",
		}, []string{"_query", "sg"}},
		{"non-linear", []string{
			"_query(Y) :- tc(a, Y).",
			"tc(X, Y) :- e(X, Y).",
			"tc(X, Y) :- tc(X, Z), tc(Z, Y).",
		}, []string{"_query", "tc"}},
		{"mutual recursion", []string{
			"_query(Y) :- odd(a, Y).",
			"odd(X, Y) :- e(X, Y).",
			"odd(X, Y) :- e(X, Z), even(Z, Y).",
			"even(X, Y) :- e(X, Z), odd(Z, Y).",
		}, []string{"_query", "odd", "even"}},
		{"no exit rule", []string{
			"_query(Y) :- loop(a, Y).",
			"loop(X, Y) :- e(X, Z), loop(Z, Y).",
		}, []string{"_query", "loop"}},
		{"non-recursive", []string{
			"_query(Y) :- hop(a, Y).",
			"hop(X, Y) :- e(X, Z), e(Z, Y).",
		}, []string{"_query", "hop"}},
		{"free variable constrained in the body", []string{
			"_query(Y) :- r(a, Y).",
			"r(X, Y) :- e(X, Y).",
			"r(X, Y) :- e(X, Z), ok(Y), r(Z, Y).",
		}, []string{"_query", "r"}},
		{"derived non-recursive atom", []string{
			"_query(Y) :- r(a, Y).",
			"r(X, Y) :- hop(X, Y).",
			"r(X, Y) :- e(X, Z), r(Z, Y).",
			"hop(X, Y) :- e(X, Z), e(Z, Y).",
		}, []string{"_query", "r", "hop"}},
	} {
		if res := Factor(clauses(tc.rules...), "_query", derivedSet(tc.derived...)); res != nil {
			t.Errorf("%s: factored into\n%s", tc.name, strings.Join(ruleStrings(res.Rules), "\n"))
		}
	}
}

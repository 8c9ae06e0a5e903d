package typeinf

import (
	"testing"

	"dkbms/internal/dlog"
	"dkbms/internal/pcg"
	"dkbms/internal/rel"
)

func analyze(t *testing.T, root string, srcs ...string) (*pcg.Graph, *pcg.Analysis) {
	t.Helper()
	var rs []dlog.Clause
	for _, s := range srcs {
		rs = append(rs, dlog.MustParseClause(s))
	}
	g := pcg.Build(rs)
	a, err := pcg.Analyze(g, root)
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

var familyBase = map[string][]rel.Type{
	"parent": {rel.TypeString, rel.TypeString},
	"age":    {rel.TypeString, rel.TypeInt},
}

func TestInferNonRecursive(t *testing.T) {
	_, a := analyze(t, "gp",
		"gp(X, Y) :- parent(X, Z), parent(Z, Y).",
	)
	types, err := Infer(a.Order, familyBase)
	if err != nil {
		t.Fatal(err)
	}
	got := types["gp"]
	if len(got) != 2 || got[0] != rel.TypeString || got[1] != rel.TypeString {
		t.Fatalf("gp types = %v", got)
	}
}

func TestInferRecursive(t *testing.T) {
	_, a := analyze(t, "anc",
		"anc(X, Y) :- parent(X, Y).",
		"anc(X, Y) :- parent(X, Z), anc(Z, Y).",
	)
	types, err := Infer(a.Order, familyBase)
	if err != nil {
		t.Fatal(err)
	}
	if got := types["anc"]; got[0] != rel.TypeString || got[1] != rel.TypeString {
		t.Fatalf("anc types = %v", got)
	}
}

func TestInferMixedTypesThroughChain(t *testing.T) {
	_, a := analyze(t, "older",
		"older(X, N) :- age(X, N).",
		"older(X, N) :- parent(X, Z), older(Z, N).",
	)
	types, err := Infer(a.Order, familyBase)
	if err != nil {
		t.Fatal(err)
	}
	got := types["older"]
	if got[0] != rel.TypeString || got[1] != rel.TypeInt {
		t.Fatalf("older types = %v", got)
	}
}

func TestInferConstantsInHeadAndBody(t *testing.T) {
	_, a := analyze(t, "labeled",
		`labeled(X, "root") :- parent(X, Y).`,
	)
	types, err := Infer(a.Order, familyBase)
	if err != nil {
		t.Fatal(err)
	}
	if got := types["labeled"]; got[1] != rel.TypeString {
		t.Fatalf("%v", got)
	}
}

func TestInferMutualRecursion(t *testing.T) {
	_, a := analyze(t, "p",
		"p(X, Y) :- parent(X, Y).",
		"p(X, Y) :- q(X, Y).",
		"q(X, Y) :- p(X, Z), parent(Z, Y).",
	)
	types, err := Infer(a.Order, familyBase)
	if err != nil {
		t.Fatal(err)
	}
	if types["p"][0] != rel.TypeString || types["q"][1] != rel.TypeString {
		t.Fatalf("p=%v q=%v", types["p"], types["q"])
	}
}

func TestConflictAcrossRules(t *testing.T) {
	_, a := analyze(t, "bad",
		"bad(X) :- parent(X, Y).",
		"bad(N) :- age(X, N).",
	)
	if _, err := Infer(a.Order, familyBase); err == nil {
		t.Fatal("conflicting rules accepted")
	}
}

func TestConflictWithinRule(t *testing.T) {
	_, a := analyze(t, "bad",
		"bad(X) :- parent(X, Y), age(Y, X).",
	)
	if _, err := Infer(a.Order, familyBase); err == nil {
		t.Fatal("variable with two types accepted")
	}
}

func TestConstantTypeMismatch(t *testing.T) {
	_, a := analyze(t, "bad",
		"bad(X) :- age(X, notanumber).",
	)
	if _, err := Infer(a.Order, familyBase); err == nil {
		t.Fatal("string constant in integer column accepted")
	}
}

func TestArityMismatchAgainstBase(t *testing.T) {
	_, a := analyze(t, "bad",
		"bad(X) :- parent(X).",
	)
	if _, err := Infer(a.Order, familyBase); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestUnresolvableClique(t *testing.T) {
	// p has no exit rule that grounds its types: pure self-recursion.
	_, a := analyze(t, "p",
		"p(X, Y) :- p(Y, X).",
	)
	if _, err := Infer(a.Order, familyBase); err == nil {
		t.Fatal("uninferable types accepted")
	}
}

func TestSwappedColumnsInRecursion(t *testing.T) {
	// Recursive rule swaps columns of mixed types: must be rejected.
	_, a := analyze(t, "p",
		"p(X, N) :- age(X, N).",
		"p(N, X) :- p(X, N).",
	)
	if _, err := Infer(a.Order, familyBase); err == nil {
		t.Fatal("type-swapping recursion accepted")
	}
}

func TestCheckDefined(t *testing.T) {
	_, a := analyze(t, "anc",
		"anc(X, Y) :- parent(X, Y).",
		"anc(X, Y) :- parent(X, Z), anc(Z, Y).",
	)
	if err := CheckDefined(a, familyBase); err != nil {
		t.Fatal(err)
	}
	// Now with a body predicate that is neither derived nor base.
	_, a2 := analyze(t, "x",
		"x(A) :- ghost(A).",
	)
	if err := CheckDefined(a2, familyBase); err == nil {
		t.Fatal("undefined predicate accepted")
	}
}

func TestInferIntConstantInHead(t *testing.T) {
	_, a := analyze(t, "tagged",
		"tagged(X, 1) :- parent(X, Y).",
	)
	types, err := Infer(a.Order, familyBase)
	if err != nil {
		t.Fatal(err)
	}
	if types["tagged"][1] != rel.TypeInt {
		t.Fatalf("%v", types["tagged"])
	}
}

package codegen

import (
	"strings"
	"testing"

	"dkbms/internal/dlog"
	"dkbms/internal/pcg"
	"dkbms/internal/rel"
)

func ident(pred string) string { return pred }

func TestCompileSimpleRule(t *testing.T) {
	c := dlog.MustParseClause("gp(X, Y) :- parent(X, Z), parent(Z, Y).")
	rs, err := CompileRule(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rs.SQL(ident)
	want := "SELECT DISTINCT t0.c0, t1.c1 FROM parent t0, parent t1 WHERE t1.c0 = t0.c1"
	if got != want {
		t.Fatalf("sql:\n got %q\nwant %q", got, want)
	}
}

func TestCompileConstants(t *testing.T) {
	c := dlog.MustParseClause(`tag(X, "root", 7) :- node(john, X).`)
	rs, err := CompileRule(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rs.SQL(ident)
	if !strings.Contains(got, "t0.c0 = 'john'") {
		t.Fatalf("constant condition missing: %q", got)
	}
	if !strings.Contains(got, "SELECT DISTINCT t0.c1, 'root', 7 FROM") {
		t.Fatalf("constant projection missing: %q", got)
	}
}

func TestCompileRepeatedVariableInOneAtom(t *testing.T) {
	c := dlog.MustParseClause("loop(X) :- e(X, X).")
	rs, err := CompileRule(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rs.SQL(ident)
	if !strings.Contains(got, "t0.c1 = t0.c0") {
		t.Fatalf("self-equality missing: %q", got)
	}
}

func TestCompileQuotedConstant(t *testing.T) {
	c := dlog.MustParseClause(`p(X) :- e(X, "o'brien").`)
	rs, err := CompileRule(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs.SQL(ident), "'o''brien'") {
		t.Fatalf("quote escaping: %q", rs.SQL(ident))
	}
}

func TestCompileCliqueOccurrences(t *testing.T) {
	c := dlog.MustParseClause("anc(X, Y) :- parent(X, Z), anc(Z, Y).")
	rs, err := CompileRule(c, map[string]bool{"anc": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.CliqueOccs) != 1 || rs.CliqueOccs[0] != 1 {
		t.Fatalf("clique occs = %v", rs.CliqueOccs)
	}
	// Nonlinear rule: two occurrences.
	c2 := dlog.MustParseClause("anc(X, Y) :- anc(X, Z), anc(Z, Y).")
	rs2, _ := CompileRule(c2, map[string]bool{"anc": true})
	if len(rs2.CliqueOccs) != 2 {
		t.Fatalf("nonlinear occs = %v", rs2.CliqueOccs)
	}
}

// TestIdent pins the predicate→identifier spelling: names within
// [a-z0-9_] spell themselves (stored databases keep their table names),
// every spelling survives SQL's case folding, and no two names share
// one.
func TestIdent(t *testing.T) {
	for name, want := range map[string]string{
		"parent":        "parent",
		"same_gen":      "same_gen",
		"_pm_anc__bf":   "_pm_anc__bf",
		"parentOf":      "0parent_of",
		"parent_of":     "parent_of",
		"parent_Of":     "0parent___of",
		"p\xe9":         "0p_233",
		"_pm_reachF__b": "0__pm__reach_f____b",
	} {
		if got := Ident(name); got != want {
			t.Errorf("Ident(%q) = %q, want %q", name, got, want)
		}
	}
	if BaseTable("parentOf") == BaseTable("parentof") || BaseTable(BridgePrefix+"parentOf") != BaseTable("parentOf") {
		t.Errorf("BaseTable: %q %q %q", BaseTable("parentOf"), BaseTable("parentof"), BaseTable(BridgePrefix+"parentOf"))
	}
	// Every name of up to four bytes over an alphabet with one of each
	// kind of byte: all spellings distinct, all within [a-z0-9_].
	alphabet := []byte{'a', 'B', 'b', '0', '2', '_', 0xe9}
	seen := make(map[string]string)
	var walk func(prefix []byte)
	walk = func(prefix []byte) {
		if len(prefix) > 0 {
			name := string(prefix)
			id := Ident(name)
			if other, dup := seen[id]; dup {
				t.Fatalf("Ident(%q) = Ident(%q) = %q", name, other, id)
			}
			seen[id] = name
			if strings.ToLower(id) != id || strings.Trim(id, "abcdefghijklmnopqrstuvwxyz0123456789_") != "" {
				t.Fatalf("Ident(%q) = %q leaves [a-z0-9_]", name, id)
			}
		}
		if len(prefix) == 4 {
			return
		}
		for _, c := range alphabet {
			if len(prefix) == 0 && (c == '0' || c == '2') {
				continue // predicate names do not start with a digit
			}
			walk(append(prefix[:len(prefix):len(prefix)], c))
		}
	}
	walk(nil)
}

func TestCompileFactRejected(t *testing.T) {
	c := dlog.MustParseClause("p(a).")
	if _, err := CompileRule(c, nil); err == nil {
		t.Fatal("fact compiled as rule")
	}
}

func TestBaseTable(t *testing.T) {
	if BaseTable("parent") != "edb_parent" {
		t.Fatal(BaseTable("parent"))
	}
	if BaseTable(BridgePrefix+"knows") != "edb_knows" {
		t.Fatal("bridge predicates must alias their original table")
	}
}

func TestGenerateProgram(t *testing.T) {
	rules := []dlog.Clause{
		dlog.MustParseClause("anc(X, Y) :- parent(X, Y)."),
		dlog.MustParseClause("anc(X, Y) :- parent(X, Z), anc(Z, Y)."),
		dlog.MustParseClause("named(X) :- anc(john, X)."),
	}
	g := pcg.Build(rules)
	a, err := pcg.Analyze(g, "named")
	if err != nil {
		t.Fatal(err)
	}
	types := map[string][]rel.Type{
		"anc":   {rel.TypeString, rel.TypeString},
		"named": {rel.TypeString},
	}
	prog, err := Generate(a.Order, types, a.BasePreds, "named")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(prog.Nodes))
	}
	if !prog.Nodes[0].Recursive || prog.Nodes[1].Recursive {
		t.Fatalf("node kinds wrong: %+v", prog.Nodes)
	}
	if prog.Schemas["anc"].String() != "(c0 CHAR, c1 CHAR)" {
		t.Fatalf("anc schema %v", prog.Schemas["anc"])
	}
	if len(prog.BasePreds) != 1 || prog.BasePreds[0] != "parent" {
		t.Fatalf("base preds %v", prog.BasePreds)
	}
	if prog.QueryPred != "named" {
		t.Fatalf("query pred %s", prog.QueryPred)
	}
}

func TestGenerateMissingTypes(t *testing.T) {
	rules := []dlog.Clause{dlog.MustParseClause("p(X) :- e(X).")}
	g := pcg.Build(rules)
	a, err := pcg.Analyze(g, "p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(a.Order, map[string][]rel.Type{}, a.BasePreds, "p"); err == nil {
		t.Fatal("missing types accepted")
	}
}

func TestUnsafeRuleRejected(t *testing.T) {
	// Head variable not in body (constructed directly; the parser-level
	// validators would also catch it).
	c := dlog.Clause{
		Head: dlog.NewAtom("p", dlog.V("X"), dlog.V("Y")),
		Body: []dlog.Atom{dlog.NewAtom("e", dlog.V("X"))},
	}
	if _, err := CompileRule(c, nil); err == nil {
		t.Fatal("unsafe rule compiled")
	}
}

func TestExplain(t *testing.T) {
	rules := []dlog.Clause{
		dlog.MustParseClause("anc(X, Y) :- parent(X, Y)."),
		dlog.MustParseClause("anc(X, Y) :- parent(X, Z), anc(Z, Y)."),
	}
	g := pcg.Build(rules)
	a, err := pcg.Analyze(g, "anc")
	if err != nil {
		t.Fatal(err)
	}
	types := map[string][]rel.Type{"anc": {rel.TypeString, rel.TypeString}}
	prog, err := Generate(a.Order, types, a.BasePreds, "anc")
	if err != nil {
		t.Fatal(err)
	}
	prog.Seeds = []SeedFact{{Pred: "anc", Tuple: rel.Tuple{rel.NewString("a"), rel.NewString("b")}}}
	out := prog.Explain()
	for _, want := range []string{
		"query predicate: anc",
		"seeds:",
		"anc(a, b)",
		"node 1 (clique): anc",
		"exit ",
		"rec ",
		"edb_parent",
		"<anc>",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
}

package codegen

import (
	"slices"
	"strings"
	"testing"

	"dkbms/internal/dlog"
	"dkbms/internal/pcg"
	"dkbms/internal/rel"
)

func ident(pred string) string { return pred }

func TestCompileSimpleRule(t *testing.T) {
	c := dlog.MustParseClause("gp(X, Y) :- parent(X, Z), parent(Z, Y).")
	rs, err := CompileRule(c)
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
	rs, err := CompileRule(c)
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
	rs, err := CompileRule(c)
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
	rs, err := CompileRule(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs.SQL(ident), "'o''brien'") {
		t.Fatalf("quote escaping: %q", rs.SQL(ident))
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
	if _, err := CompileRule(c); err == nil {
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
	if _, err := CompileRule(c); err == nil {
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

// TestExplainWritesLiterals: a bound query's rules are prepared with
// each body constant a value parameter, but EXPLAIN still shows them
// written in — byte for byte the text it showed while rules were
// prepared with literals — so the shown text runs as it reads. A
// string constant that itself reads "?1" stays a literal.
func TestExplainWritesLiterals(t *testing.T) {
	rules := []dlog.Clause{
		dlog.MustParseClause("anc(X, Y) :- parent(X, Y)."),
		dlog.MustParseClause("anc(X, Y) :- parent(X, Z), anc(Z, Y)."),
		dlog.MustParseClause(`named(X, 7) :- anc(john, X), age(X, 7), nick(X, "o'brien ?1").`),
	}
	g := pcg.Build(rules)
	a, err := pcg.Analyze(g, "named")
	if err != nil {
		t.Fatal(err)
	}
	types := map[string][]rel.Type{
		"anc":   {rel.TypeString, rel.TypeString},
		"named": {rel.TypeString, rel.TypeInt},
	}
	prog, err := Generate(a.Order, types, a.BasePreds, "named")
	if err != nil {
		t.Fatal(err)
	}
	prog.Seeds = []SeedFact{{Pred: "anc", Tuple: rel.Tuple{rel.NewString("a"), rel.NewString("b")}}}
	const want = "query predicate: named\nseeds:\n  anc(a, b)\nnode 1 (clique): anc\n" +
		"  exit  anc(X, Y) :- parent(X, Y).\n        SELECT DISTINCT t0.c0, t0.c1 FROM edb_parent t0\n" +
		"  rec   anc(X, Y) :- parent(X, Z), anc(Z, Y).\n        SELECT DISTINCT t0.c0, t1.c1 FROM edb_parent t0, <anc> t1 WHERE t1.c0 = t0.c1\n" +
		"node 2 (predicate): named\n" +
		"  exit  named(X, 7) :- anc(john, X), age(X, 7), nick(X, \"o'brien ?1\").\n" +
		"        SELECT DISTINCT t0.c1, 7 FROM <anc> t0, edb_age t1, edb_nick t2 WHERE t0.c0 = 'john' AND t1.c0 = t0.c1 AND t1.c1 = 7 AND t2.c0 = t0.c1 AND t2.c1 = 'o''brien ?1'\n"
	if got := prog.Explain(); got != want {
		t.Errorf("Explain:\n%s\nwant\n%s", got, want)
	}
	r := prog.Nodes[1].ExitRules[0]
	if got, want := r.ParamSQL(ident), "SELECT DISTINCT t0.c1, 7 FROM anc t0, age t1, nick t2 WHERE t0.c0 = ?1 AND t1.c0 = t0.c1 AND t1.c1 = ?2 AND t2.c0 = t0.c1 AND t2.c1 = ?3"; got != want {
		t.Errorf("prepared text %q, want %q", got, want)
	}
	if got := rel.Tuple(r.Values).String(); got != "(john, 7, o'brien ?1)" {
		t.Errorf("values %s", got)
	}
}

// TestSchemaShared: the schema of a predicate relation of up to four
// INTEGER and CHAR columns is one value every program shares; a wider
// one is made for its caller. Both name their columns c0, c1, ...
func TestSchemaShared(t *testing.T) {
	for _, tc := range []struct {
		types  []rel.Type
		want   string
		shared bool
	}{
		{[]rel.Type{rel.TypeString}, "(c0 CHAR)", true},
		{[]rel.Type{rel.TypeInt, rel.TypeString}, "(c0 INTEGER, c1 CHAR)", true},
		{[]rel.Type{rel.TypeString, rel.TypeString, rel.TypeInt, rel.TypeString}, "(c0 CHAR, c1 CHAR, c2 INTEGER, c3 CHAR)", true},
		{[]rel.Type{rel.TypeInt, rel.TypeInt, rel.TypeInt, rel.TypeInt, rel.TypeString}, "(c0 INTEGER, c1 INTEGER, c2 INTEGER, c3 INTEGER, c4 CHAR)", false},
	} {
		a, err := Schema(tc.types)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Schema(slices.Clone(tc.types))
		if a.String() != tc.want || b.String() != tc.want || (a == b) != tc.shared {
			t.Errorf("Schema(%v) = %v and %v, shared %v; want %s, shared %v", tc.types, a, b, a == b, tc.want, tc.shared)
		}
	}
}

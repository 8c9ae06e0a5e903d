package core

import (
	"strings"
	"testing"

	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/magic"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/stored"
)

func TestWorkspaceHoldsRulesOnly(t *testing.T) {
	w := NewWorkspace()
	if err := w.AddClause(dlog.MustParseClause("ancestor(X, Y) :- parent(X, Y).")); err != nil {
		t.Fatal(err)
	}
	if err := w.AddClause(dlog.MustParseClause("parent(john, mary).")); err == nil {
		t.Fatal("fact accepted")
	}
	if len(w.Rules()) != 1 {
		t.Fatalf("rules = %d", len(w.Rules()))
	}
	c := w.Clone()
	w.Clear()
	if len(w.Rules()) != 0 {
		t.Fatal("clear incomplete")
	}
	if len(c.Rules()) != 1 {
		t.Fatal("clearing the original emptied its clone")
	}
}

func TestWorkspaceRejections(t *testing.T) {
	w := NewWorkspace()
	if err := w.AddClause(dlog.MustParseClause("_x(X) :- e(X).")); err == nil {
		t.Fatal("reserved head accepted")
	}
	if err := w.AddClause(dlog.MustParseClause("p(X) :- _query(X).")); err == nil {
		t.Fatal("reserved body accepted")
	}
	if err := w.AddClause(dlog.MustParseClause("p(X, Y) :- e(X).")); err == nil {
		t.Fatal("non-range-restricted accepted")
	}
}

// compileEnv prepares a compiler over an in-memory DB: each source
// clause that is a rule goes into the workspace, and each fact into the
// stored D/KB, the way the facade's Load sends them.
func compileEnv(t *testing.T, srcs ...string) *Compiler {
	t.Helper()
	d := db.OpenMemory()
	t.Cleanup(func() { d.Close() })
	st, err := stored.Open(d, stored.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkspace()
	for _, src := range srcs {
		c := dlog.MustParseClause(src)
		if !c.IsFact() {
			if err := w.AddClause(c); err != nil {
				t.Fatal(err)
			}
			continue
		}
		tu := make(rel.Tuple, len(c.Head.Args))
		for i, a := range c.Head.Args {
			tu[i] = a.Val
		}
		if err := st.InsertFact(c.Head.Pred, tu); err != nil {
			t.Fatal(err)
		}
	}
	return &Compiler{WS: w, DB: d, Stored: st}
}

func query(t *testing.T, s string) dlog.Query {
	t.Helper()
	q, err := dlog.ParseQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCompileAncestor(t *testing.T) {
	cp := compileEnv(t,
		"parent(john, mary).",
		"ancestor(X, Y) :- parent(X, Y).",
		"ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
	)
	compiled, err := cp.Compile(query(t, "?- ancestor(john, W)."), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Optimized {
		t.Fatal("optimize off but Optimized set")
	}
	if compiled.Stats.RelevantRules != 2 {
		t.Fatalf("R_r = %d", compiled.Stats.RelevantRules)
	}
	if compiled.Stats.RelevantPreds != 2 { // ancestor + _query
		t.Fatalf("P_r = %d", compiled.Stats.RelevantPreds)
	}
	if len(compiled.Vars) != 1 || compiled.Vars[0] != "W" {
		t.Fatalf("vars = %v", compiled.Vars)
	}
	prog := compiled.Program
	if prog.QueryPred != dlog.QueryPred {
		t.Fatalf("query pred %s", prog.QueryPred)
	}
	if len(prog.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(prog.Nodes))
	}
}

func TestCompileWithMagic(t *testing.T) {
	cp := compileEnv(t,
		"parent(john, mary).",
		"ancestor(X, Y) :- parent(X, Y).",
		"ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
	)
	compiled, err := cp.Compile(query(t, "?- ancestor(john, W)."), CompileOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !compiled.Optimized {
		t.Fatal("not optimized")
	}
	if len(compiled.Program.Seeds) != 1 {
		t.Fatalf("seeds = %v", compiled.Program.Seeds)
	}
	// Factoring leaves _query(W) :- ancestor__bf(W): the answer is
	// read from ancestor__bf's relation.
	if compiled.Program.QueryPred != "ancestor__bf" {
		t.Fatalf("query pred %s", compiled.Program.QueryPred)
	}
	// Magic sets keep the query rule, which binds a constant.
	forced, err := cp.Compile(query(t, "?- ancestor(john, W)."), CompileOptions{Optimize: true, ForceMagic: true})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Program.QueryPred != "_query__f" {
		t.Fatalf("forced magic: query pred %s", forced.Program.QueryPred)
	}
	// Unbound query falls back to identity.
	unopt, err := cp.Compile(query(t, "?- ancestor(A, B)."), CompileOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if unopt.Optimized {
		t.Fatal("unbound query claimed optimization")
	}
}

// TestRewriteIsVisible: a compile reports which rewrite ran, in
// Compiled.Rewrite and on its trace's compile span — factoring for a
// bound right-linear closure, generalized magic sets when that is forced
// or for the pass-through adornment factoring declines, none for an
// unbound query.
func TestRewriteIsVisible(t *testing.T) {
	cp := compileEnv(t,
		"parent(john, mary).",
		"ancestor(X, Y) :- parent(X, Y).",
		"ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
	)
	for _, tc := range []struct {
		query string
		opts  CompileOptions
		want  string
	}{
		{"?- ancestor(john, W).", CompileOptions{Optimize: true}, magic.Factoring},
		{"?- ancestor(john, W).", CompileOptions{Optimize: true, ForceMagic: true}, magic.GeneralizedMagic},
		{"?- ancestor(W, mary).", CompileOptions{Optimize: true}, magic.GeneralizedMagic},
		{"?- ancestor(A, B).", CompileOptions{Optimize: true}, ""},
		{"?- ancestor(john, W).", CompileOptions{}, ""},
	} {
		tr := obs.NewTrace("query")
		tc.opts.Trace = tr
		compiled, err := cp.Compile(query(t, tc.query), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if compiled.Rewrite != tc.want || compiled.Optimized != (tc.want != "") {
			t.Errorf("%s %+v: rewrite %q optimized %v, want %q", tc.query, tc.opts, compiled.Rewrite, compiled.Optimized, tc.want)
		}
		span := ""
		for _, a := range tr.Root().Find("compile").Attrs {
			if a.Key == "rewrite" {
				span = a.Str
			}
		}
		if span != tc.want {
			t.Errorf("%s %+v: compile span rewrite=%q, want %q", tc.query, tc.opts, span, tc.want)
		}
	}
}

func TestCompileStatsTimings(t *testing.T) {
	cp := compileEnv(t,
		"parent(john, mary).",
		"ancestor(X, Y) :- parent(X, Y).",
		"ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
	)
	compiled, err := cp.Compile(query(t, "?- ancestor(john, W)."), CompileOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	s := compiled.Stats
	if s.Total <= 0 {
		t.Fatalf("stats = %+v", s)
	}
	sum := s.Setup + s.Extract + s.ReadDict + s.Rewrite + s.EvalOrder + s.TypeCheck + s.CodeGen
	if sum > s.Total {
		t.Fatalf("component sum %v exceeds total %v", sum, s.Total)
	}
}

func TestCompilePullsStoredRules(t *testing.T) {
	// Rules live only in the stored D/KB; the workspace is empty.
	cp := compileEnv(t)
	st := cp.Stored.(*stored.Manager)
	if err := st.InsertFact("parent", rel.Tuple{rel.NewString("john"), rel.NewString("mary")}); err != nil {
		t.Fatal(err)
	}
	_, err := st.Update([]dlog.Clause{
		dlog.MustParseClause("ancestor(X, Y) :- parent(X, Y)."),
		dlog.MustParseClause("ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."),
	})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := cp.Compile(query(t, "?- ancestor(john, W)."), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Stats.RelevantRules != 2 {
		t.Fatalf("R_r = %d", compiled.Stats.RelevantRules)
	}
}

func TestCompileMixedWorkspaceAndStored(t *testing.T) {
	// Workspace rule references a stored rule's predicate and vice
	// versa is exercised by the facade tests; here: workspace on top of
	// stored.
	cp := compileEnv(t, "named(X) :- ancestor(john, X).")
	st := cp.Stored.(*stored.Manager)
	st.InsertFact("parent", rel.Tuple{rel.NewString("john"), rel.NewString("mary")})
	if _, err := st.Update([]dlog.Clause{
		dlog.MustParseClause("ancestor(X, Y) :- parent(X, Y)."),
		dlog.MustParseClause("ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."),
	}); err != nil {
		t.Fatal(err)
	}
	compiled, err := cp.Compile(query(t, "?- named(W)."), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Stats.RelevantRules != 3 {
		t.Fatalf("R_r = %d", compiled.Stats.RelevantRules)
	}
}

func TestCompileErrors(t *testing.T) {
	cp := compileEnv(t, "p(X) :- ghost(X).")
	if _, err := cp.Compile(query(t, "?- p(W)."), CompileOptions{}); err == nil {
		t.Fatal("undefined predicate accepted")
	}
	if _, err := cp.Compile(dlog.Query{}, CompileOptions{}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := cp.Compile(query(t, "?- p(a)."), CompileOptions{}); err == nil {
		t.Fatal("ground query accepted")
	}
}

// TestCompileRejectsRepeatedDictColumn: a predicate whose extensional
// dictionary rows number one column twice — here its two rows both
// column 0, inserted through SQL — is dictionary corruption, which
// fails the compile instead of leaving column 1 untyped.
func TestCompileRejectsRepeatedDictColumn(t *testing.T) {
	cp := compileEnv(t, "p(X, Y) :- ghost(X, Y).")
	if err := cp.DB.Exec("INSERT INTO edbcols VALUES ('ghost', 0, 'CHAR'), ('ghost', 0, 'CHAR')"); err != nil {
		t.Fatal(err)
	}
	_, err := cp.Compile(query(t, "?- p(X, Y)."), CompileOptions{})
	if err == nil || !strings.Contains(err.Error(), "dictionary corruption for ghost") {
		t.Fatalf("a compile over a column numbered twice: %v, want dictionary corruption", err)
	}
}

func TestNormalizeMixedPredicates(t *testing.T) {
	cp := compileEnv(t,
		"knows(ann, bob).",
		"friend(ann, carl).",
		"knows(X, Y) :- friend(X, Y).",
	)
	compiled, err := cp.Compile(query(t, "?- knows(ann, W)."), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The program must read the bridge base predicate for knows' facts.
	foundBridge := false
	for _, p := range compiled.Program.BasePreds {
		if strings.HasPrefix(p, "_b_") {
			foundBridge = true
		}
	}
	if !foundBridge {
		t.Fatalf("no bridge predicate in %v", compiled.Program.BasePreds)
	}
}

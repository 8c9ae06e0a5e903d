package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dkbms"
)

func newShell(t *testing.T) (*shell, *bytes.Buffer) {
	t.Helper()
	tb := dkbms.NewMemory()
	t.Cleanup(func() { tb.Close() })
	var buf bytes.Buffer
	return &shell{tb: tb, out: &buf}, &buf
}

func drive(t *testing.T, sh *shell, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if err := sh.handle(l); err != nil {
			t.Fatalf("handle(%q): %v", l, err)
		}
	}
}

func TestShellClauseQueryFlow(t *testing.T) {
	sh, buf := newShell(t)
	drive(t, sh,
		"parent(john, mary).",
		"parent(mary, ann).",
		"ancestor(X, Y) :- parent(X, Y).",
		"ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
		"?- ancestor(john, W).",
	)
	out := buf.String()
	if !strings.Contains(out, "mary") || !strings.Contains(out, "ann") {
		t.Fatalf("query output missing rows:\n%s", out)
	}
	if !strings.Contains(out, "2 rows") {
		t.Fatalf("row count missing:\n%s", out)
	}
}

func TestShellUpdateAndStored(t *testing.T) {
	sh, buf := newShell(t)
	drive(t, sh,
		"parent(a, b).",
		"anc(X, Y) :- parent(X, Y).",
		".update",
		".stored",
	)
	out := buf.String()
	if !strings.Contains(out, "committed 1 rules") {
		t.Fatalf("update output:\n%s", out)
	}
	if !strings.Contains(out, "stored rules: 1") {
		t.Fatalf("stored output:\n%s", out)
	}
}

func TestShellOptsAndTiming(t *testing.T) {
	sh, buf := newShell(t)
	drive(t, sh, ".opts naive nomagic")
	if !sh.opts.Naive || !sh.opts.NoOptimize {
		t.Fatalf("opts = %+v", sh.opts)
	}
	drive(t, sh, ".opts seminaive magic")
	if sh.opts.Naive || sh.opts.NoOptimize {
		t.Fatalf("opts = %+v", sh.opts)
	}
	if err := sh.handle(".opts adaptive"); err == nil {
		t.Fatal("the deleted adaptive option accepted")
	}
	if err := sh.handle(".opts bogus"); err == nil {
		t.Fatal("bogus option accepted")
	}
	buf.Reset()
	drive(t, sh,
		"parent(a, b).",
		"anc(X, Y) :- parent(X, Y).",
		".timing on",
		"?- anc(a, W).",
	)
	if !strings.Contains(buf.String(), "compile ") {
		t.Fatalf("timing output missing:\n%s", buf.String())
	}
}

// TestShellParallelUsesTestbedPool: the local shell's parallel queries
// run on its testbed's own evaluation pool, which nothing has to
// attach, and only `.opts parallel` sends work there.
func TestShellParallelUsesTestbedPool(t *testing.T) {
	sh, buf := newShell(t)
	drive(t, sh, "parent(a, b).", "parent(b, c).",
		"anc(X, Y) :- parent(X, Y).", "anc(X, Y) :- parent(X, Z), anc(Z, Y).",
		"?- anc(X, Y).")
	if n := sh.tb.SchedStats().Submitted; n != 0 {
		t.Fatalf("a sequential query submitted %d tasks to the pool", n)
	}
	drive(t, sh, ".opts parallel nomagic", ".opts parallel")
	if !sh.opts.Parallel {
		t.Fatalf("opts = %+v, want parallel", sh.opts)
	}
	buf.Reset()
	drive(t, sh, "?- anc(X, Y).")
	if !strings.Contains(buf.String(), "3 row") {
		t.Fatalf("parallel query output:\n%s", buf.String())
	}
	if sh.tb.SchedStats().Submitted == 0 {
		t.Fatal("parallel query never reached the pool")
	}
}

// TestShellNaiveParallel: `.opts naive parallel` keeps both options, and
// a query over two independent cliques runs naive on the pool.
func TestShellNaiveParallel(t *testing.T) {
	sh, buf := newShell(t)
	drive(t, sh, "e(p, q).", "e(q, r).", "f(p, q).", "f(q, r).",
		"a(X, Y) :- e(X, Y).", "a(X, Y) :- e(X, Z), a(Z, Y).",
		"b(X, Y) :- f(X, Y).", "b(X, Y) :- f(X, Z), b(Z, Y).",
		"both(X, Y) :- a(X, Y), b(X, Y).",
		".opts naive parallel")
	if !sh.opts.Naive || !sh.opts.Parallel {
		t.Fatalf("opts = %+v, want naive and parallel", sh.opts)
	}
	if !strings.Contains(buf.String(), "strategy=naive magic=true parallel=true") {
		t.Fatalf(".opts output:\n%s", buf.String())
	}
	buf.Reset()
	drive(t, sh, "?- both(X, Y).")
	if out := buf.String(); !strings.Contains(out, "3 rows [naive]") {
		t.Fatalf("naive parallel query output:\n%s", out)
	}
	if sh.tb.SchedStats().Submitted == 0 {
		t.Fatal("naive parallel query never reached the pool")
	}
}

func TestShellRawSQL(t *testing.T) {
	sh, buf := newShell(t)
	drive(t, sh,
		".sql CREATE TABLE raw (x INTEGER)",
		".sql INSERT INTO raw VALUES (7)",
		".sql SELECT x FROM raw",
	)
	if !strings.Contains(buf.String(), "7") {
		t.Fatalf("sql output:\n%s", buf.String())
	}
}

func TestShellLoadFile(t *testing.T) {
	sh, buf := newShell(t)
	path := filepath.Join(t.TempDir(), "prog.dl")
	if err := os.WriteFile(path, []byte("parent(x, y).\nanc(A, B) :- parent(A, B).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	drive(t, sh, ".load "+path, "?- anc(x, W).")
	if !strings.Contains(buf.String(), "y") {
		t.Fatalf("load output:\n%s", buf.String())
	}
	if err := sh.handle(".load /no/such/file"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestShellErrors(t *testing.T) {
	sh, _ := newShell(t)
	if err := sh.handle(".bogus"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := sh.handle("?- undefined(X)."); err == nil {
		t.Fatal("bad query accepted")
	}
	if err := sh.handle("not valid datalog"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestShellHelp(t *testing.T) {
	sh, buf := newShell(t)
	drive(t, sh, ".help")
	if !strings.Contains(buf.String(), ".update") {
		t.Fatal("help output incomplete")
	}
}

func TestShellExplain(t *testing.T) {
	sh, buf := newShell(t)
	drive(t, sh,
		"parent(a, b).",
		"anc(X, Y) :- parent(X, Y).",
		"anc(X, Y) :- parent(X, Z), anc(Z, Y).",
		".explain ?- anc(a, W).",
	)
	out := buf.String()
	for _, want := range []string{"rewrite: factoring", "clique", "SELECT DISTINCT", "edb_parent"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	// The pass-through adornment keeps generalized magic sets.
	buf.Reset()
	drive(t, sh, ".explain ?- anc(W, b).")
	if out := buf.String(); !strings.HasPrefix(out, "rewrite: magic sets\n") {
		t.Fatalf("explain header is not the magic-sets rewrite:\n%s", out)
	}
	if err := sh.handle(".explain ?- nosuch(X)."); err == nil {
		t.Fatal("explain of bad query accepted")
	}
}

package codegen_test

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

// shape renders a span tree without its timings: names, attributes and
// nesting, which is what a traced statement reports of its plan.
func shape(s *obs.Span, depth int, b *strings.Builder) {
	b.WriteString(strings.Repeat("  ", depth) + s.Name)
	for _, a := range s.Attrs {
		if !strings.HasSuffix(a.Key, "_us") && !strings.HasSuffix(a.Key, "_ns") {
			b.WriteString(" " + a.Key + "=" + a.Value())
		}
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		shape(c, depth+1, b)
	}
}

// TestParamSQLMatchesLiterals runs rule bodies with constants both ways
// — the literal text EXPLAIN shows, as an ad-hoc query, and the text a
// run prepares, every table a parameter and every constant a value
// parameter — and gets the same rows from the same operator tree: the
// constants select the same index probes and filters either way.
func TestParamSQLMatchesLiterals(t *testing.T) {
	ctx := context.Background()
	d := db.OpenMemory()
	for _, stmt := range []string{
		"CREATE TABLE edb_parent (c0 CHAR, c1 CHAR)",
		"CREATE TABLE edb_age (c0 CHAR, c1 INTEGER)",
		"INSERT INTO edb_parent VALUES ('john','mary'), ('john','bob'), ('mary','ann'), ('mary','tom'), ('bob','lea'), ('tom','o''brien ?1')",
		"INSERT INTO edb_age VALUES ('mary', 40), ('bob', 38), ('ann', 7), ('tom', 7), ('lea', 9)",
		"CREATE INDEX parent_c0 ON edb_parent (c0)",
	} {
		if err := d.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{
		"kid(X) :- parent(john, X).",
		"seven(X) :- parent(X, Y), age(Y, 7).",
		"gk(Z) :- parent(john, Y), parent(Y, Z), age(Z, 7).",
		`odd(X) :- parent(X, "o'brien ?1").`,
		"none(X) :- parent(X, nobody).",
	} {
		r, err := codegen.CompileRule(dlog.MustParseClause(src))
		if err != nil {
			t.Fatal(err)
		}
		run := func(prepared bool) (rows, tree string) {
			tr := obs.NewTrace("rule")
			var res *db.Rows
			if prepared {
				var params []*rel.Schema
				var tables []string
				pos := 0
				text := r.ParamSQL(func(pred string) string {
					tables = append(tables, codegen.BaseTable(pred))
					params = append(params, d.Table(codegen.BaseTable(pred)).Schema)
					pos++
					return "$" + strconv.Itoa(pos)
				})
				st, err := d.Prepare(text, params...)
				if err != nil {
					t.Fatalf("%s: prepare %q: %v", src, text, err)
				}
				res, err = st.Query(ctx, d, tr.Root(), r.Values, tables...)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				text := r.SQL(codegen.BaseTable)
				st, err := d.Prepare(text)
				if err != nil {
					t.Fatalf("%s: prepare %q: %v", src, text, err)
				}
				res, err = st.Query(ctx, d, tr.Root(), nil)
				if err != nil {
					t.Fatal(err)
				}
			}
			out := make([]string, len(res.Tuples))
			for i, tu := range res.Tuples {
				out[i] = tu.String()
			}
			sort.Strings(out)
			var b strings.Builder
			shape(tr.Root(), 0, &b)
			return strings.Join(out, " "), b.String()
		}
		rows, tree := run(false)
		pRows, pTree := run(true)
		if rows != pRows {
			t.Errorf("%s: literal text returns %q, prepared %q", src, rows, pRows)
		}
		if tree != pTree || !strings.Contains(tree, "rows=") {
			t.Errorf("%s: literal text's tree\n%s\nprepared\n%s", src, tree, pTree)
		}
		if strings.Contains(src, "john") && !strings.Contains(tree, "idxscan(") {
			t.Errorf("%s: no index probe for the constant:\n%s", src, tree)
		}
	}
}

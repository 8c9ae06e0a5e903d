package sql

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// render writes a parsed statement back as SQL text. It exists for
// FuzzParse: the parser is the only reader of the dialect, so the
// property that holds it to the AST is that what it accepted, written
// out from the AST alone, parses to the same AST. Table parameters are
// written here, value parameters (?n) by FormatExpr.
func render(st Statement) string {
	var b strings.Builder
	position := func(table string, param int) {
		if param != 0 {
			b.WriteString("$" + strconv.Itoa(param))
		} else {
			b.WriteString(table)
		}
	}
	var sel func(s *Select)
	sel = func(s *Select) {
		b.WriteString("SELECT ")
		if s.Distinct {
			b.WriteString("DISTINCT ")
		}
		switch {
		case s.CountStar:
			b.WriteString("COUNT(*)")
		case len(s.Items) == 0:
			b.WriteString("*")
		}
		for i, it := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(FormatExpr(it.Expr))
			if it.Alias != "" {
				b.WriteString(" AS " + it.Alias)
			}
		}
		b.WriteString(" FROM ")
		for i, tr := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			position(tr.Table, tr.Param)
			if tr.Param == 0 || tr.Alias != "$"+strconv.Itoa(tr.Param) {
				b.WriteString(" " + tr.Alias)
			}
		}
		if s.Where != nil {
			b.WriteString(" WHERE " + FormatExpr(s.Where))
		}
		if s.SetOp != SetNone {
			b.WriteString([...]string{SetUnion: " UNION ", SetUnionAll: " UNION ALL ", SetExcept: " EXCEPT ", SetIntersect: " INTERSECT "}[s.SetOp])
			sel(s.Next)
		}
	}
	switch s := st.(type) {
	case *Select:
		sel(s)
	case CreateTable:
		b.WriteString("CREATE ")
		if s.Temp {
			b.WriteString("TEMP ")
		}
		b.WriteString("TABLE " + s.Name + " (")
		for i, c := range s.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name + " " + c.Type.String())
		}
		b.WriteString(")")
	case DropTable:
		b.WriteString("DROP TABLE ")
		if s.IfExists {
			b.WriteString("IF EXISTS ")
		}
		b.WriteString(s.Name)
	case CreateIndex:
		b.WriteString("CREATE INDEX " + s.Name + " ON " + s.Table + " (" + strings.Join(s.Columns, ", ") + ")")
	case DropIndex:
		b.WriteString("DROP INDEX " + s.Name)
	case Insert:
		b.WriteString("INSERT INTO ")
		position(s.Table, s.Param)
		if s.Query != nil {
			b.WriteString(" ")
			sel(s.Query)
			break
		}
		b.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for k, e := range row {
				if k > 0 {
					b.WriteString(", ")
				}
				b.WriteString(FormatExpr(e))
			}
			b.WriteString(")")
		}
	case Delete:
		b.WriteString("DELETE FROM " + s.Table)
		if s.Where != nil {
			b.WriteString(" WHERE " + FormatExpr(s.Where))
		}
	}
	return b.String()
}

// FuzzParse feeds the parser arbitrary text — statement text reaches it
// from the shell's .sql command and from every caller that renders a
// name into a statement: it never panics, and a statement it accepts,
// rendered from its AST, parses to an equal AST. The seed corpus under
// testdata/fuzz holds every statement form, table and value parameters
// where they are legal and where they are not, and the inputs of
// TestParseErrors.
func FuzzParse(f *testing.F) {
	f.Add("SELECT DISTINCT t0.c0, 'it''s' AS s FROM edb_parent t0, $2 AS t1 WHERE (t0.c1 = t1.c0 AND NOT t1.c1 <> ?1) OR t0.c0 >= 'a'")
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		text := render(st)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q does not parse: %v", src, text, err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("Parse(%q) = %#v; rendered as %q it parses to %#v", src, st, text, again)
		}
	})
}

package sql

import (
	"strings"
	"testing"

	"dkbms/internal/rel"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, "CREATE TABLE parent (par CHAR, chd CHAR)").(CreateTable)
	if st.Name != "parent" || len(st.Columns) != 2 {
		t.Fatalf("%+v", st)
	}
	if st.Columns[0] != (rel.Column{Name: "par", Type: rel.TypeString}) {
		t.Fatalf("col0 = %+v", st.Columns[0])
	}
	if st.Temp {
		t.Fatal("unexpected temp")
	}
}

func TestParseCreateTempTableWithLengths(t *testing.T) {
	st := mustParse(t, "create temp table tmp1 (a integer, b char(20))").(CreateTable)
	if !st.Temp || st.Name != "tmp1" {
		t.Fatalf("%+v", st)
	}
	if st.Columns[1].Type != rel.TypeString {
		t.Fatalf("char(20) type = %v", st.Columns[1].Type)
	}
}

func TestParseCreateDropIndex(t *testing.T) {
	ci := mustParse(t, "CREATE INDEX rs_head ON rulesource (headpredname, ruleid)").(CreateIndex)
	if ci.Name != "rs_head" || ci.Table != "rulesource" || len(ci.Columns) != 2 {
		t.Fatalf("%+v", ci)
	}
	di := mustParse(t, "DROP INDEX rs_head").(DropIndex)
	if di.Name != "rs_head" {
		t.Fatalf("%+v", di)
	}
}

func TestParseDropTable(t *testing.T) {
	dt := mustParse(t, "DROP TABLE IF EXISTS tmp_delta;").(DropTable)
	if dt.Name != "tmp_delta" || !dt.IfExists {
		t.Fatalf("%+v", dt)
	}
	dt2 := mustParse(t, "DROP TABLE t").(DropTable)
	if dt2.IfExists {
		t.Fatal("IfExists should be false")
	}
}

func TestParseInsertValues(t *testing.T) {
	in := mustParse(t, "INSERT INTO parent VALUES ('john', 'mary'), ('mary', 'ann')").(Insert)
	if in.Table != "parent" || len(in.Rows) != 2 || in.Query != nil {
		t.Fatalf("%+v", in)
	}
	lit := in.Rows[1][1].(Literal)
	if lit.Value.Str != "ann" {
		t.Fatalf("literal = %v", lit)
	}
	neg := mustParse(t, "INSERT INTO nums VALUES (-5)").(Insert)
	if neg.Rows[0][0].(Literal).Value.Int != -5 {
		t.Fatal("negative literal")
	}
}

func TestParseInsertSelect(t *testing.T) {
	in := mustParse(t, "INSERT INTO anc SELECT t0.par, t0.chd FROM parent t0").(Insert)
	if in.Query == nil || in.Rows != nil {
		t.Fatalf("%+v", in)
	}
	if len(in.Query.Items) != 2 {
		t.Fatalf("items = %d", len(in.Query.Items))
	}
}

func TestParseDelete(t *testing.T) {
	d := mustParse(t, "DELETE FROM t WHERE a = 1 AND b <> 'x'").(Delete)
	if d.Table != "t" || d.Where == nil {
		t.Fatalf("%+v", d)
	}
	d2 := mustParse(t, "DELETE FROM t").(Delete)
	if d2.Where != nil {
		t.Fatal("where should be nil")
	}
}

func TestParseSelectBasic(t *testing.T) {
	s := mustParse(t, "SELECT DISTINCT t0.c0, t1.c1 FROM parent t0, anc AS t1 WHERE t0.c1 = t1.c0").(*Select)
	if !s.Distinct || len(s.Items) != 2 || len(s.From) != 2 {
		t.Fatalf("%+v", s)
	}
	if s.From[0].Alias != "t0" || s.From[1].Alias != "t1" || s.From[1].Table != "anc" {
		t.Fatalf("from = %+v", s.From)
	}
	cmp := s.Where.(Compare)
	if cmp.Op != CmpEq || cmp.Left.(ColRef).Table != "t0" {
		t.Fatalf("where = %+v", s.Where)
	}
}

func TestParseSelectStar(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t").(*Select)
	if len(s.Items) != 0 || s.CountStar {
		t.Fatalf("%+v", s)
	}
}

func TestParseCountStar(t *testing.T) {
	s := mustParse(t, "SELECT COUNT(*) FROM t WHERE x > 3").(*Select)
	if !s.CountStar {
		t.Fatalf("%+v", s)
	}
}

func TestParseCompound(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t EXCEPT SELECT a FROM u UNION SELECT a FROM v").(*Select)
	if s.SetOp != SetExcept || s.Next == nil {
		t.Fatalf("first op = %v", s.SetOp)
	}
	if s.Next.SetOp != SetUnion || s.Next.Next == nil {
		t.Fatalf("second op = %v", s.Next.SetOp)
	}
	sa := mustParse(t, "SELECT a FROM t UNION ALL SELECT a FROM u").(*Select)
	if sa.SetOp != SetUnionAll {
		t.Fatalf("op = %v", sa.SetOp)
	}
}

func TestParseBooleanStructure(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE (x = 1 OR y = 2) AND NOT z = 3").(*Select)
	and, ok := s.Where.(And)
	if !ok {
		t.Fatalf("top is %T", s.Where)
	}
	if _, ok := and.Left.(Or); !ok {
		t.Fatalf("left is %T", and.Left)
	}
	if _, ok := and.Right.(Not); !ok {
		t.Fatalf("right is %T", and.Right)
	}
	// Precedence: AND binds tighter than OR.
	s2 := mustParse(t, "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3").(*Select)
	if _, ok := s2.Where.(Or); !ok {
		t.Fatalf("top is %T, want Or", s2.Where)
	}
}

func TestParseAllComparators(t *testing.T) {
	ops := map[string]CmpOp{"=": CmpEq, "<>": CmpNe, "!=": CmpNe, "<": CmpLt, "<=": CmpLe, ">": CmpGt, ">=": CmpGe}
	for text, want := range ops {
		s := mustParse(t, "SELECT a FROM t WHERE a "+text+" 5").(*Select)
		if got := s.Where.(Compare).Op; got != want {
			t.Errorf("op %q parsed as %v", text, got)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = 'o''brien'").(*Select)
	lit := s.Where.(Compare).Right.(Literal)
	if lit.Value.Str != "o'brien" {
		t.Fatalf("literal = %q", lit.Value.Str)
	}
}

func TestParseCaseInsensitivity(t *testing.T) {
	s := mustParse(t, "select A from T where A = 1").(*Select)
	if s.From[0].Table != "t" || s.Items[0].Expr.(ColRef).Column != "a" {
		t.Fatalf("identifiers not folded: %+v", s)
	}
}

func TestParseComments(t *testing.T) {
	s := mustParse(t, "SELECT a -- projection\nFROM t -- source\n").(*Select)
	if len(s.Items) != 1 {
		t.Fatalf("%+v", s)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a ==",
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOB)",
		"CREATE VIEW v",
		"INSERT INTO t",
		"INSERT INTO t VALUES (a)", // column ref in VALUES
		"DELETE t",
		"DROP t",
		"SELECT a FROM t alias extra",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT a FROM t WHERE a @ 1",
		"SELECT COUNT(a) FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

// TestParseValueParams: ?n stands where a literal may, in WHERE and in
// the select list, of any block of a compound; it is refused at a table
// position, out of range and without a number, and $n is refused where a
// value is expected.
func TestParseValueParams(t *testing.T) {
	s := mustParse(t, "SELECT rs.ruletext FROM reachablepreds rp, rulesource rs WHERE rp.frompredname = ?1 AND rs.headpredname = rp.topredname UNION SELECT ruletext FROM rulesource WHERE ?2 = headpredname").(*Select)
	first := s.Where.(And).Left.(Compare)
	if first.Right != (ValueParam{N: 1}) {
		t.Fatalf("first block: %#v", first)
	}
	if s.Next.Where.(Compare).Left != (ValueParam{N: 2}) {
		t.Fatalf("second block: %#v", s.Next.Where)
	}
	if got := FormatExpr(s.Next.Where); got != "?2 = headpredname" {
		t.Fatalf("formatted as %q", got)
	}
	if max := mustParse(t, "SELECT a FROM t WHERE a = ?1024").(*Select); max.Where.(Compare).Right != (ValueParam{N: 1024}) {
		t.Fatalf("?1024: %#v", max.Where)
	}
	for _, src := range []string{
		"SELECT a FROM t WHERE a = ?0",
		"SELECT a FROM t WHERE a = ?01",
		"SELECT a FROM t WHERE a = ?1025",
		"SELECT a FROM t WHERE a = ?99999999999999999999",
		"SELECT a FROM t WHERE a = ?",
		"SELECT a FROM t WHERE a = ? 1",
		"SELECT a FROM ?1",
		"SELECT a FROM t, ?1 u",
		"INSERT INTO ?1 SELECT a FROM t",
		"INSERT INTO t VALUES (?1)",
		"DELETE FROM ?1",
		"SELECT a FROM t WHERE a = $1",
		"SELECT $1 FROM t",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestFormatExprRoundTrip(t *testing.T) {
	src := "SELECT a FROM t WHERE (t.a = 1 AND b <> 'x') OR NOT c < 3"
	s := mustParse(t, src).(*Select)
	formatted := FormatExpr(s.Where)
	// Reparse the formatted predicate inside a shell query; structure
	// must be preserved.
	s2 := mustParse(t, "SELECT a FROM t WHERE "+formatted).(*Select)
	if FormatExpr(s2.Where) != formatted {
		t.Fatalf("format not stable: %q vs %q", FormatExpr(s2.Where), formatted)
	}
	if !strings.Contains(formatted, "AND") || !strings.Contains(formatted, "NOT") {
		t.Fatalf("formatted = %q", formatted)
	}
}

func TestSelectItemAlias(t *testing.T) {
	s := mustParse(t, "SELECT t0.c0 AS src, 5 AS five FROM t t0").(*Select)
	if s.Items[0].Alias != "src" || s.Items[1].Alias != "five" {
		t.Fatalf("%+v", s.Items)
	}
	if s.Items[1].Expr.(Literal).Value.Int != 5 {
		t.Fatal("literal projection")
	}
}

func BenchmarkParseSelect(b *testing.B) {
	const q = "SELECT DISTINCT t0.c0, t1.c1 FROM parent t0, ancestor t1 WHERE t0.c1 = t1.c0 AND t0.c0 = 'john'"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseCompound(b *testing.B) {
	const q = "SELECT c0, c1 FROM a EXCEPT SELECT c0, c1 FROM b EXCEPT SELECT c0, c1 FROM c"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

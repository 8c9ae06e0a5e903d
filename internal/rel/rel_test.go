package rel

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	if TypeInt.String() != "INTEGER" || TypeString.String() != "CHAR" {
		t.Fatalf("unexpected type names: %v %v", TypeInt, TypeString)
	}
	if TypeUnknown.String() != "UNKNOWN" {
		t.Fatalf("unexpected zero type name: %v", TypeUnknown)
	}
}

func TestParseType(t *testing.T) {
	for _, s := range []string{"INTEGER", "INT", "int", "integer"} {
		ty, err := ParseType(s)
		if err != nil || ty != TypeInt {
			t.Fatalf("ParseType(%q) = %v, %v", s, ty, err)
		}
	}
	for _, s := range []string{"CHAR", "char", "VARCHAR", "string"} {
		ty, err := ParseType(s)
		if err != nil || ty != TypeString {
			t.Fatalf("ParseType(%q) = %v, %v", s, ty, err)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Fatal("ParseType(blob) should fail")
	}
}

func TestValueString(t *testing.T) {
	if NewInt(-42).String() != "-42" {
		t.Fatalf("int rendering: %q", NewInt(-42).String())
	}
	if NewString("abc").String() != "abc" {
		t.Fatalf("string rendering: %q", NewString("abc").String())
	}
}

func TestValueSQL(t *testing.T) {
	if NewInt(7).SQL() != "7" {
		t.Fatalf("int SQL: %q", NewInt(7).SQL())
	}
	if NewString("o'brien").SQL() != "'o''brien'" {
		t.Fatalf("string SQL quoting: %q", NewString("o'brien").SQL())
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(5), NewInt(5), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("a"), 1},
		{NewString("x"), NewString("x"), 0},
		{NewInt(1), NewString("1"), -1}, // type tag ordering
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareTotalOrderProperty(t *testing.T) {
	// Compare must be antisymmetric and transitive over random values.
	gen := func(r *rand.Rand) Value {
		if r.Intn(2) == 0 {
			return NewInt(int64(r.Intn(20) - 10))
		}
		return NewString(string(rune('a' + r.Intn(5))))
	}
	r := rand.New(rand.NewSource(1))
	vals := make([]Value, 40)
	for i := range vals {
		vals[i] = gen(r)
	}
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Fatalf("antisymmetry violated for %v,%v", a, b)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("transitivity violated for %v,%v,%v", a, b, c)
				}
			}
		}
	}
}

func TestSchemaBasics(t *testing.T) {
	s, err := NewSchema(Column{"x", TypeInt}, Column{"y", TypeString})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Col(0).Name != "x" || s.Col(1).Type != TypeString {
		t.Fatalf("schema contents wrong: %v", s)
	}
	if s.Ordinal("y") != 1 || s.Ordinal("z") != -1 {
		t.Fatal("Ordinal lookup wrong")
	}
	if s.String() != "(x INTEGER, y CHAR)" {
		t.Fatalf("String: %q", s.String())
	}
}

func TestSchemaDuplicateRejected(t *testing.T) {
	if _, err := NewSchema(Column{"x", TypeInt}, Column{"x", TypeInt}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewSchema(Column{"", TypeInt}); err == nil {
		t.Fatal("empty column name accepted")
	}
}

func TestSchemaProjectConcat(t *testing.T) {
	s := MustSchema(Column{"a", TypeInt}, Column{"b", TypeString}, Column{"c", TypeInt})
	p := s.Project([]int{2, 0})
	if p.String() != "(c INTEGER, a INTEGER)" {
		t.Fatalf("project: %v", p)
	}
	q := MustSchema(Column{"d", TypeString})
	j := s.Concat(q)
	if j.Len() != 4 || j.Col(3).Name != "d" {
		t.Fatalf("concat: %v", j)
	}
}

func TestSchemaCompat(t *testing.T) {
	a := MustSchema(Column{"a", TypeInt}, Column{"b", TypeString})
	b := MustSchema(Column{"x", TypeInt}, Column{"y", TypeString})
	c := MustSchema(Column{"x", TypeString}, Column{"y", TypeInt})
	if !a.TypesCompatible(b) {
		t.Fatal("a and b should be type-compatible")
	}
	if a.TypesCompatible(c) {
		t.Fatal("a and c should not be compatible")
	}
	if a.Equal(b) {
		t.Fatal("a and b are not Equal (names differ)")
	}
	if !a.Equal(a) {
		t.Fatal("a should equal itself")
	}
}

func TestTupleRoundTrip(t *testing.T) {
	s := MustSchema(Column{"a", TypeInt}, Column{"b", TypeString}, Column{"c", TypeInt})
	tu := Tuple{NewInt(-5), NewString("hello world"), NewInt(1 << 40)}
	enc := tu.Encode(nil)
	dec, err := DecodeTuple(enc, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tu, dec) {
		t.Fatalf("round trip: got %v want %v", dec, tu)
	}
}

func TestTupleEncodePropertyRoundTrip(t *testing.T) {
	// Property: Encode/DecodeTuple round-trips arbitrary (int, string) rows.
	f := func(i int64, s string, j int64) bool {
		sch := MustSchema(Column{"a", TypeInt}, Column{"b", TypeString}, Column{"c", TypeInt})
		tu := Tuple{NewInt(i), NewString(s), NewInt(j)}
		dec, err := DecodeTuple(tu.Encode(nil), sch)
		return err == nil && reflect.DeepEqual(tu, dec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTupleKeyInjective: within one column-type vector, distinct tuples
// have distinct keys — which is all a key promises (see AppendKey).
func TestTupleKeyInjective(t *testing.T) {
	f := func(a1 int64, s1 string, a2 int64, s2 string) bool {
		t1 := Tuple{NewInt(a1), NewString(s1)}
		t2 := Tuple{NewInt(a2), NewString(s2)}
		same := a1 == a2 && s1 == s2
		return (t1.Key() == t2.Key()) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(s1, r1, s2, r2 string) bool {
		same := s1 == s2 && r1 == r2
		return (Tuple{NewString(s1), NewString(r1)}.Key() == Tuple{NewString(s2), NewString(r2)}.Key()) == same
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
	// Regression: the classic concatenation ambiguity must not collide.
	t1 := Tuple{NewString("ab"), NewString("c")}
	t2 := Tuple{NewString("a"), NewString("bc")}
	if t1.Key() == t2.Key() {
		t.Fatal("key not injective across string boundaries")
	}
	// Strings holding length prefixes or the bytes of an integer.
	t3 := Tuple{NewString("\x01a"), NewString("")}
	t4 := Tuple{NewString(""), NewString("\x01a")}
	if t3.Key() == t4.Key() {
		t.Fatal("key not injective when a string looks like a length prefix")
	}
	// Across type vectors nothing is promised, and this is why: an
	// 8-byte string after its length byte and a one-byte string before
	// an int can spell the same bytes.
	x := Tuple{NewString("\x00\x00\x00\x00\x00\x00\x00")}.Key() // 0x07 + 7 zero bytes
	y := Tuple{NewInt(7 << 56)}.Key()
	if x != y {
		t.Fatalf("expected the documented cross-type collision, got %q vs %q", x, y)
	}
}

// TestTupleKeyIsTheStoredRecord: the key over all columns is the bytes
// Encode writes, so a stored record stands in for its tuple's key.
func TestTupleKeyIsTheStoredRecord(t *testing.T) {
	f := func(i int64, s string, j int64) bool {
		tu := Tuple{NewInt(i), NewString(s), NewInt(j)}
		return tu.Key() == string(tu.Encode(nil)) &&
			bytes.Equal(tu.AppendKey([]byte("x"), nil), append([]byte("x"), tu.Encode(nil)...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTupleKeyOfMatchesProjection(t *testing.T) {
	f := func(i int64, s string, j int64) bool {
		tu := Tuple{NewInt(i), NewString(s), NewInt(j)}
		for _, ords := range [][]int{{2, 0}, {1}, {1, 1, 0}, {0, 1, 2}, {}} {
			proj := make(Tuple, len(ords))
			for k, o := range ords {
				proj[k] = tu[o]
			}
			if string(tu.AppendKey(nil, ords)) != proj.Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendKeyReusesBuffer: with a warm scratch buffer a key costs no
// allocation, and a map probe with it costs none either.
func TestAppendKeyReusesBuffer(t *testing.T) {
	tu := Tuple{NewInt(42), NewString("some constant"), NewInt(-1)}
	m := map[string]bool{tu.Key(): true}
	buf := tu.AppendKey(nil, nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = tu.AppendKey(buf[:0], nil)
		if !m[string(buf)] {
			t.Fatal("probe missed")
		}
		buf = tu.AppendKey(buf[:0], []int{2, 1})
	})
	if allocs != 0 {
		t.Fatalf("AppendKey + probe allocated %.0f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = tu.Key() }); allocs > 1 {
		t.Fatalf("Key allocated %.0f times, want at most the string", allocs)
	}
}

func TestCompareTuples(t *testing.T) {
	a := Tuple{NewInt(1), NewInt(2)}
	b := Tuple{NewInt(1), NewInt(3)}
	c := Tuple{NewInt(1)}
	if CompareTuples(a, b) != -1 || CompareTuples(b, a) != 1 {
		t.Fatal("lexicographic compare wrong")
	}
	if CompareTuples(c, a) != -1 || CompareTuples(a, a) != 0 {
		t.Fatal("prefix compare wrong")
	}
}

func TestDecodeErrors(t *testing.T) {
	s := MustSchema(Column{"a", TypeInt})
	if _, err := DecodeTuple([]byte{1, 2}, s); err == nil {
		t.Fatal("short int data accepted")
	}
	ss := MustSchema(Column{"a", TypeString})
	if _, err := DecodeTuple([]byte{10, 'x'}, ss); err == nil {
		t.Fatal("short string data accepted")
	}
	// A string length past the end of the data — including one that
	// overflows int — is a short tuple, not a slice-bounds panic.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, err := DecodeTuple(huge, ss); err == nil || !strings.Contains(err.Error(), "short tuple") {
		t.Fatalf("2^64-1 string length: err = %v, want short tuple", err)
	}
	// A longer spelling of a length Encode would have written shorter.
	if _, err := DecodeTuple([]byte{0x81, 0x00, 'x'}, ss); err == nil {
		t.Fatal("non-minimal string length accepted")
	}
	// Trailing junk must be rejected.
	tu := Tuple{NewInt(1)}
	enc := append(tu.Encode(nil), 0xFF)
	if _, err := DecodeTuple(enc, s); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTupleClone(t *testing.T) {
	a := Tuple{NewInt(1), NewString("x")}
	b := a.Clone()
	b[0] = NewInt(9)
	if a[0].Int != 1 {
		t.Fatal("Clone aliases original")
	}
}

// TestOwnRowsCopiesExactly: the copies equal the originals, nil rows
// stay nil, an empty row stays non-nil (a nil tuple ends an operator's
// output), the copies cannot grow into each other, and the whole result
// costs two allocations — one slab, one string — however many rows.
func TestOwnRowsCopiesExactly(t *testing.T) {
	schema := MustSchema(Column{"a", TypeInt}, Column{"s", TypeString}, Column{"u", TypeString})
	dec := NewBlockDecoder(schema)
	const n = 50
	dec.Begin(n, 0)
	for i := 0; i < n; i++ {
		rec := Tuple{NewInt(int64(i)), NewString(strings.Repeat("x", i%5)), NewString(fmt.Sprint("u", i))}.Encode(nil)
		if err := dec.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	block := dec.Finish()
	rows := []Tuple{nil, {}}
	for i := 0; i < n; i++ {
		rows = append(rows, block.Row(i))
	}
	orig := append([]Tuple(nil), rows...)
	OwnRows(rows)
	if rows[0] != nil || rows[1] == nil || len(rows[1]) != 0 {
		t.Fatalf("nil row became %v, empty row %v", rows[0], rows[1])
	}
	for i := 2; i < len(rows); i++ {
		if CompareTuples(rows[i], orig[i]) != 0 || cap(rows[i]) != len(rows[i]) {
			t.Fatalf("row %d: copy %v (cap %d) of %v", i, rows[i], cap(rows[i]), orig[i])
		}
		if &rows[i][0] == &orig[i][0] {
			t.Fatalf("row %d still lies in its block", i)
		}
	}
	if c := (Tuple{NewInt(1), NewString("abc")}).Clone(); c[1].Str != "abc" || c[0].Int != 1 || Tuple(nil).Clone() != nil {
		t.Fatalf("Clone = %v, Clone(nil) = %v", c, Tuple(nil).Clone())
	}
	allocs := testing.AllocsPerRun(10, func() { OwnRows(append([]Tuple(nil), orig...)) })
	if allocs > 3 { // the copy of orig, the slab, the string
		t.Errorf("OwnRows of %d rows: %.0f allocations", n, allocs)
	}
}

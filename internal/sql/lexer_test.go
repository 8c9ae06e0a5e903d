package sql

import (
	"strings"
	"testing"
)

func lexKinds(t *testing.T, src string) []token {
	t.Helper()
	toks, err := lex(src)
	if err != nil {
		t.Fatalf("lex(%q): %v", src, err)
	}
	return toks
}

func TestLexKeywordsAndIdentifiers(t *testing.T) {
	toks := lexKinds(t, "SELECT distinct foo FROM Bar")
	want := []struct {
		kind tokenKind
		text string
	}{
		{tokKeyword, "SELECT"},
		{tokKeyword, "DISTINCT"},
		{tokIdent, "foo"},
		{tokKeyword, "FROM"},
		{tokIdent, "bar"},
		{tokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens", len(toks))
	}
	for i, w := range want {
		if toks[i].kind != w.kind || toks[i].text != w.text {
			t.Fatalf("token %d = (%d, %q), want (%d, %q)", i, toks[i].kind, toks[i].text, w.kind, w.text)
		}
	}
}

// TestLexKeywordAnyCase pins that every keyword matches in any case and
// always comes out as its upper-case constant, that a word one byte off
// a keyword is an identifier, and that lexing words allocates nothing
// beyond the token slice.
func TestLexKeywordAnyCase(t *testing.T) {
	for kw := range keywords {
		if len(kw) > maxKeywordLen {
			t.Fatalf("keyword %s longer than maxKeywordLen", kw)
		}
		mixed := strings.ToLower(kw[:1]) + kw[1:]
		for _, src := range []string{kw, strings.ToLower(kw), mixed} {
			toks := lexKinds(t, src)
			if toks[0].kind != tokKeyword || toks[0].text != kw {
				t.Errorf("lex(%q) = (%d, %q), want keyword %s", src, toks[0].kind, toks[0].text, kw)
			}
		}
		for _, src := range []string{kw + "x", kw + "_", "x" + kw} {
			if toks := lexKinds(t, src); toks[0].kind != tokIdent || toks[0].text != strings.ToLower(src) {
				t.Errorf("lex(%q) = (%d, %q), want an identifier", src, toks[0].kind, toks[0].text)
			}
		}
	}
	const q = "select frompredname from reachablepreds where topredname = 'p' and frompredname <> 'q'"
	if n := testing.AllocsPerRun(100, func() {
		if _, err := lex(q); err != nil {
			t.Fatal(err)
		}
	}); n > 4 { // the lexer, its token slice and the two literals
		t.Errorf("lexing %q: %v allocations, want at most 4", q, n)
	}
}

func TestLexOperators(t *testing.T) {
	toks := lexKinds(t, "<> != <= >= < > = ( ) , . * ;")
	texts := []string{"<>", "!=", "<=", ">=", "<", ">", "=", "(", ")", ",", ".", "*", ";"}
	for i, w := range texts {
		if toks[i].kind != tokSymbol || toks[i].text != w {
			t.Fatalf("token %d = %q, want %q", i, toks[i].text, w)
		}
	}
}

func TestLexStringsAndNumbers(t *testing.T) {
	toks := lexKinds(t, "'abc' 'it''s' 42 -7")
	if toks[0].kind != tokString || toks[0].text != "abc" {
		t.Fatalf("%+v", toks[0])
	}
	if toks[1].text != "it's" {
		t.Fatalf("escaped quote: %q", toks[1].text)
	}
	if toks[2].kind != tokInt || toks[2].text != "42" {
		t.Fatalf("%+v", toks[2])
	}
	if toks[3].kind != tokInt || toks[3].text != "-7" {
		t.Fatalf("negative: %+v", toks[3])
	}
}

func TestLexComments(t *testing.T) {
	toks := lexKinds(t, "SELECT -- everything\n x")
	if len(toks) != 3 || toks[1].text != "x" {
		t.Fatalf("%+v", toks)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "@", "#"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) succeeded", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexKinds(t, "SELECT  x")
	if toks[0].pos != 0 || toks[1].pos != 8 {
		t.Fatalf("positions: %d, %d", toks[0].pos, toks[1].pos)
	}
}

func TestLexUnderscoreIdentifiers(t *testing.T) {
	toks := lexKinds(t, "_query edb_parent c0")
	for i, want := range []string{"_query", "edb_parent", "c0"} {
		if toks[i].kind != tokIdent || toks[i].text != want {
			t.Fatalf("token %d = %+v", i, toks[i])
		}
	}
}

func TestLexMinusNotFollowedByDigit(t *testing.T) {
	// A bare '-' (not a comment, not a negative number) is an error in
	// this dialect — there is no arithmetic.
	if _, err := lex("a - b"); err == nil {
		t.Fatal("bare minus accepted")
	}
}

package lintkit

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //dkblint:... comment. Every directive is a
// waiver, and the suite's grammar is
//
//	//dkblint:<name> <justification>
//
// A waiver covers its own line and the line below it, so both
// end-of-line and standalone-comment placements work. The directives
// analyzer rejects unknown names and waivers with no justification, so
// a misspelled waiver fails the build instead of silently not waiving.
type Directive struct {
	Name string
	Arg  string // the justification
	Pos  token.Pos
	Line int
}

// DirectiveSpec describes one known directive for the registry (and
// `dkblint -directives`).
type DirectiveSpec struct {
	Name     string
	Analyzer string
	Doc      string
}

// Directives is the registry of every directive the suite understands,
// in listing order.
var Directives = []DirectiveSpec{
	{Name: "bounded", Analyzer: "gofanout",
		Doc: "waive a `go` launch inside a loop whose fan-out is intrinsically fixed"},
	{Name: "locksafe", Analyzer: "lockorder",
		Doc: "waive the held-across-a-blocking-call finding for the lock acquired on this or the next line"},
	{Name: "pinsafe", Analyzer: "pinleak",
		Doc: "waive the release obligation of the pin/ticket acquired on this or the next line"},
	{Name: "ctxok", Analyzer: "ctxflow",
		Doc: "waive an unbounded loop on this or the next line that terminates by other means"},
}

// DirectiveSpecFor returns the registry entry for name, or nil.
func DirectiveSpecFor(name string) *DirectiveSpec {
	for i := range Directives {
		if Directives[i].Name == name {
			return &Directives[i]
		}
	}
	return nil
}

// ParseDirective decodes one comment's text, or returns false when the
// comment is not a //dkblint: directive at all.
func ParseDirective(text string) (Directive, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), "//dkblint:")
	if !ok {
		return Directive{}, false
	}
	// The name runs to the first whitespace.
	d := Directive{Name: rest}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		d.Name, d.Arg = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	// An embedded "//" starts a trailing comment (fixture `// want`
	// annotations ride there); it is not part of the justification.
	if i := strings.Index(d.Arg, "//"); i >= 0 {
		d.Arg = strings.TrimSpace(d.Arg[:i])
	}
	return d, true
}

// FileDirectives returns every //dkblint: directive in a file, in
// source order, with positions resolved.
func FileDirectives(fset *token.FileSet, file *ast.File) []Directive {
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			d, ok := ParseDirective(c.Text)
			if !ok {
				continue
			}
			d.Pos = c.Pos()
			d.Line = fset.Position(c.Pos()).Line
			out = append(out, d)
		}
	}
	return out
}

// WaivedLines maps line numbers covered by the named waiver directive
// (its own line and the one below) to the waiver's justification text.
// A waiver with no justification still waives — the directives analyzer
// reports the missing justification separately, so the finding surfaces
// exactly once.
func WaivedLines(fset *token.FileSet, file *ast.File, name string) map[int]string {
	lines := map[int]string{}
	for _, d := range FileDirectives(fset, file) {
		if d.Name != name {
			continue
		}
		lines[d.Line] = d.Arg
		lines[d.Line+1] = d.Arg
	}
	return lines
}

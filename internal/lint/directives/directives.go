// Package directives validates the //dkblint: comment grammar itself.
// Waivers are load-bearing: a misspelled `//dkblint:locsafe` or a bare
// `//dkblint:locksafe` with no justification would silently fail to
// waive (or silently waive with no audit trail). This analyzer makes
// both a finding, so the directive surface stays closed:
//
//   - unknown directive names are rejected, with the registry listed;
//   - every directive is a waiver (bounded, locksafe, pinsafe, ctxok)
//     and must carry a justification after the name.
//
// The registry lives in lintkit (shared with every analyzer and with
// `dkblint -directives`), so adding a directive is one table entry.
package directives

import (
	"strings"

	"dkbms/internal/lint/lintkit"
)

// Analyzer is the directives pass.
var Analyzer = &lintkit.Analyzer{
	Name: "directives",
	Doc:  "every //dkblint: directive is known, well-formed, and waivers carry a justification",
	Run:  run,
}

func run(pass *lintkit.Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, d := range lintkit.FileDirectives(pass.Fset, file) {
			switch {
			case lintkit.DirectiveSpecFor(d.Name) == nil:
				pass.Reportf(d.Pos, "unknown directive //dkblint:%s (known: %s)", d.Name, knownNames())
			case d.Arg == "":
				pass.Reportf(d.Pos, "waiver //dkblint:%s requires a justification (//dkblint:%s <why this is safe>)", d.Name, d.Name)
			}
		}
	}
	return nil
}

func knownNames() string {
	names := make([]string, len(lintkit.Directives))
	for i, s := range lintkit.Directives {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

package lintkit

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// RunFixtures is the kit's analysistest: it loads every package under
// root (conventionally the analyzer's testdata/src directory), runs the
// analyzer over all of them, and compares the diagnostics against
// `// want "regexp"` comments in the fixture sources. A line may carry
// several quoted patterns; each must match exactly one diagnostic on
// that line. Fixture packages may import each other by directory name
// and may import the standard library.
func RunFixtures(t *testing.T, a *Analyzer, root string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := loadFixtureTree(fset, root)
	if err != nil {
		t.Fatalf("loading fixtures under %s: %v", root, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages under %s", root)
	}
	diags, err := Run(fset, pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	checkExpectations(t, fset, pkgs, diags)
}

// expectation is one `// want` pattern at a file:line.
type expectation struct {
	pos     token.Position
	pattern *regexp.Regexp
	matched bool
}

func checkExpectations(t *testing.T, fset *token.FileSet, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					wants = append(wants, parseWants(t, fset.Position(c.Pos()), c.Text)...)
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.pos.Filename != d.Pos.Filename || w.pos.Line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].pos.Filename != wants[j].pos.Filename {
			return wants[i].pos.Filename < wants[j].pos.Filename
		}
		return wants[i].pos.Line < wants[j].pos.Line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: expected diagnostic matching %q, got none", w.pos, w.pattern)
		}
	}
}

// parseWants extracts the quoted patterns of a `// want "..." "..."`
// comment.
func parseWants(t *testing.T, pos token.Position, text string) []*expectation {
	t.Helper()
	idx := strings.Index(text, "want ")
	if !strings.HasPrefix(text, "//") || idx < 0 {
		return nil
	}
	rest := strings.TrimSpace(text[idx+len("want "):])
	var out []*expectation
	for rest != "" {
		if rest[0] != '"' {
			t.Errorf("%s: malformed want comment at %q", pos, rest)
			return out
		}
		end := 1
		for end < len(rest) && rest[end] != '"' {
			if rest[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(rest) {
			t.Errorf("%s: unterminated want pattern", pos)
			return out
		}
		lit, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			t.Errorf("%s: bad want pattern %s: %v", pos, rest[:end+1], err)
			return out
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Errorf("%s: bad want regexp %q: %v", pos, lit, err)
			return out
		}
		out = append(out, &expectation{pos: pos, pattern: re})
		rest = strings.TrimSpace(rest[end+1:])
	}
	return out
}

// loadFixtureTree parses and type-checks every package directory under
// root. The import path of a fixture package is its path relative to
// root; standard-library imports are satisfied by a real Load rooted at
// the current directory (which sits inside the module).
func loadFixtureTree(fset *token.FileSet, root string) ([]*Package, error) {
	dirs := map[string][]string{} // rel import path -> go files
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		dirs[key] = append(dirs[key], path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Parse everything first so imports can be resolved in two passes.
	type fixturePkg struct {
		path   string
		files  []*ast.File
		locals []string // imports of other fixture packages
	}
	fixtureByPath := map[string]*fixturePkg{}
	var fixtures []*fixturePkg
	stdImports := map[string]bool{}
	for path, files := range dirs {
		sort.Strings(files)
		fp := &fixturePkg{path: path}
		for _, fname := range files {
			f, err := parser.ParseFile(fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			fp.files = append(fp.files, f)
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if _, local := dirs[p]; local {
					fp.locals = append(fp.locals, p)
				} else if p != "" {
					stdImports[p] = true
				}
			}
		}
		fixtureByPath[path] = fp
		fixtures = append(fixtures, fp)
	}
	sort.Slice(fixtures, func(i, j int) bool { return fixtures[i].path < fixtures[j].path })

	// Satisfy external (standard-library) imports with the real loader.
	imp := &fixtureImporter{known: map[string]*types.Package{}}
	if len(stdImports) > 0 {
		patterns := make([]string, 0, len(stdImports))
		for p := range stdImports {
			patterns = append(patterns, p)
		}
		sort.Strings(patterns)
		std, err := Load(fset, ".", patterns...)
		if err != nil {
			return nil, fmt.Errorf("loading fixture std deps: %w", err)
		}
		for _, p := range std {
			if p.Types != nil {
				imp.known[p.Path] = p.Types
			}
		}
	}

	// Type-check fixtures in local-dependency order.
	var out []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(fp *fixturePkg) error
	visit = func(fp *fixturePkg) error {
		switch state[fp.path] {
		case 1:
			return fmt.Errorf("fixture import cycle through %s", fp.path)
		case 2:
			return nil
		}
		state[fp.path] = 1
		for _, dep := range fp.locals {
			if err := visit(fixtureByPath[dep]); err != nil {
				return err
			}
		}
		typed, info, errs := typeCheck(fset, fp.path, fp.files, imp, false)
		if len(errs) > 0 {
			return fmt.Errorf("type-checking fixture %s: %v", fp.path, errs[0])
		}
		imp.known[fp.path] = typed
		out = append(out, &Package{
			Path:   fp.path,
			Files:  fp.files,
			Types:  typed,
			Info:   info,
			Target: true,
		})
		state[fp.path] = 2
		return nil
	}
	for _, fp := range fixtures {
		if err := visit(fp); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// fixtureImporter resolves imports from a fixed map.
type fixtureImporter struct {
	known map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := fi.known[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("fixture import %q not available", path)
}

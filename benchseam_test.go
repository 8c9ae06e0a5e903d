package dkbms

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestBenchSeamUnused holds the seam to benchmark/: the identifiers kept
// for benchmark/ only are used nowhere else in the module. Outside
// benchmark/, testdata, benchseam.go, internal/sched and
// internal/matview, no file may name SchedStats or MatViewStats, select
// or set a field Parallel (the declaration of QueryOptions.Parallel is
// a field, not a selector), or import dkbms/internal/sched or
// dkbms/internal/matview.
func TestBenchSeamUnused(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") ||
				path == "benchmark" || path == filepath.Join("internal", "sched") ||
				path == filepath.Join("internal", "matview") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "benchseam.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, use := range seamUses(f) {
			t.Errorf("%s: %s, which is kept for benchmark/ only", fset.Position(use.pos), use.what)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type seamUse struct {
	pos  token.Pos
	what string
}

// seamUses lists f's uses of the seam.
func seamUses(f *ast.File) []seamUse {
	var uses []seamUse
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "dkbms/internal/sched" || p == "dkbms/internal/matview" {
			uses = append(uses, seamUse{imp.Pos(), "an import of " + p})
		}
	}
	// A method named Parallel (testing.T.Parallel) is not the field.
	called := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				called[sel] = true
			}
		case *ast.Ident:
			if n.Name == "SchedStats" || n.Name == "MatViewStats" {
				uses = append(uses, seamUse{n.Pos(), "the identifier " + n.Name})
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "Parallel" && !called[n] {
				uses = append(uses, seamUse{n.Pos(), "the field Parallel"})
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Parallel" {
						uses = append(uses, seamUse{k.Pos(), "the field key Parallel"})
					}
				}
			}
		}
		return true
	})
	return uses
}

package lintkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// loader type-checks a dependency-ordered package list from source. It
// implements types.Importer over the packages loaded so far.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*Package
}

// Import satisfies types.Importer. The standard library vendors some
// golang.org/x packages under "vendor/", and source files import them by
// the unvendored path, so that spelling is tried as a fallback.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok && p.Types != nil {
		return p.Types, nil
	}
	if p, ok := l.pkgs["vendor/"+path]; ok && p.Types != nil {
		return p.Types, nil
	}
	return nil, fmt.Errorf("lintkit: package %q not loaded", path)
}

// Load lists patterns (and their dependency closure) with the go tool,
// parses every package and type-checks them from source in dependency
// order. dir is the directory to run `go list` in (any directory inside
// the module under analysis). Packages matching the patterns are marked
// Target; dependency packages are type-checked with function bodies
// ignored, which keeps loading the full standard-library closure cheap.
func Load(fset *token.FileSet, dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// cgo-free file sets: go/types needs no C toolchain, and the pure-Go
	// fallbacks of net/os-user are fully checkable from source.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lintkit: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	var listed []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lintkit: decoding go list output: %w", err)
		}
		listed = append(listed, lp)
	}

	l := &loader{fset: fset, pkgs: make(map[string]*Package, len(listed))}
	var result []*Package
	for _, lp := range listed {
		if lp.ImportPath == "unsafe" {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lintkit: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := l.check(lp)
		if err != nil {
			return nil, err
		}
		l.pkgs[lp.ImportPath] = pkg
		result = append(result, pkg)
	}
	return result, nil
}

// check parses and type-checks one listed package. go list -deps emits
// dependencies before dependents, so imports resolve from l.pkgs.
func (l *loader) check(lp *listPackage) (*Package, error) {
	pkg := &Package{
		Path:   lp.ImportPath,
		Target: !lp.DepOnly,
	}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if lp.DepOnly {
				continue // tolerate oddities outside the analyzed module
			}
			return nil, fmt.Errorf("lintkit: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	typed, info, errs := typeCheck(l.fset, lp.ImportPath, pkg.Files, l, lp.DepOnly)
	pkg.Types, pkg.Info = typed, info
	if !lp.DepOnly && len(errs) > 0 {
		return nil, fmt.Errorf("lintkit: type-checking %s: %v", lp.ImportPath, errs[0])
	}
	return pkg, nil
}

// typeCheck runs go/types over parsed files. Soft errors are collected
// rather than aborting so dependency packages with platform quirks
// still surface their exported API.
func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, depOnly bool) (*types.Package, *types.Info, []error) {
	var errs []error
	conf := types.Config{
		Importer:         imp,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: depOnly,
		FakeImportC:      true,
		Error:            func(err error) { errs = append(errs, err) },
	}
	var info *types.Info
	if !depOnly {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
	}
	typed, _ := conf.Check(path, fset, files, info)
	return typed, info, errs
}

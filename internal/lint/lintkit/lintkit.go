// Package lintkit is the foundation of the dkblint analyzer suite: a
// deliberately small, dependency-free re-creation of the parts of
// golang.org/x/tools/go/analysis that the suite needs. The module's
// build environment has no network access to fetch x/tools, so the kit
// mirrors its Analyzer/Pass shape closely enough that the analyzers
// could be ported to the real framework by swapping imports.
//
// The kit provides three things:
//
//   - a package loader (load.go) that shells out to `go list -json
//     -deps` and type-checks the result from source with go/types,
//     skipping function bodies of dependency packages for speed;
//   - a statement-level control-flow graph builder (cfg.go) used by the
//     flow-sensitive analyzers (lockorder, pinleak);
//   - a fixture runner (fixture.go) in the spirit of analysistest: a
//     testdata/src tree of small packages annotated with `// want`
//     comments.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check. Run is invoked once per load, inspects
// the target packages in Pass.All and reports findings through the
// pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	// Types and Info are nil only if type checking failed entirely.
	Types *types.Package
	Info  *types.Info
	// Target marks packages named by the load patterns (as opposed to
	// dependencies); analyzers run over targets only.
	Target bool
}

// Pass carries one analyzer's view of the whole load.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// All lists every loaded package, dependencies included; analyzers
	// report on the Target ones only.
	All []*Package
	// Cache is shared by every pass of one Run call: expensive
	// module-wide structures (the call graph) are built once and reused
	// across analyzers; main reads them back for -stats.
	Cache *Cache

	report func(Diagnostic)
}

// Cache holds per-run shared facts, built lazily on first use.
type Cache struct {
	cg    *CallGraph
	extra map[string]any
}

// NewCache returns an empty per-run cache.
func NewCache() *Cache { return &Cache{extra: make(map[string]any)} }

// CallGraph returns the run's CHA call graph over the target packages,
// building it on first call.
func (c *Cache) CallGraph(fset *token.FileSet, all []*Package) *CallGraph {
	if c.cg == nil {
		c.cg = BuildCallGraph(fset, all)
	}
	return c.cg
}

// BuiltCallGraph returns the call graph if some analyzer built one
// (nil otherwise) — for -stats reporting without forcing a build.
func (c *Cache) BuiltCallGraph() *CallGraph { return c.cg }

// Store saves an analyzer-published fact under a key (e.g. the
// lock-order graph, for -stats and the module pin test).
func (c *Cache) Store(key string, v any) { c.extra[key] = v }

// Load returns a stored fact, or nil.
func (c *Cache) Load(key string) any { return c.extra[key] }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies each analyzer to the load and returns the findings in
// source order.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunWithCache(fset, pkgs, analyzers, NewCache())
}

// RunWithCache is Run with a caller-provided fact cache, so the caller
// can read back module-wide structures (call-graph sizes, the lock
// graph) after the run.
func RunWithCache(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, cache *Cache) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, All: pkgs, Cache: cache, report: report}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && lessDiag(diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

func lessDiag(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}

// --- shared type-query helpers ---

// Callee resolves the called function or method object of a call, or
// nil for calls through function values, built-ins and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// ReceiverTypeName returns the named type of a method's receiver (minus
// any pointer indirection), or "" for plain functions.
func ReceiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// PkgName returns the name of the package declaring fn ("" for
// builtins).
func PkgName(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Name()
}

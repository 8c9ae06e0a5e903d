package lintkit

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CallGraph is a CHA-style call graph over the target packages of one
// load: one node per function declaration with a body, one edge per
// resolved call site. Static calls (plain functions, concrete methods)
// resolve exactly; calls through an interface fan out to every method
// of that name on a target-package type implementing the interface
// (class-hierarchy analysis — an over-approximation, since the call
// could only ever dispatch to types that actually flow there). Calls
// through function values and calls inside function literals are not
// resolved; DynamicSites counts them so a run can report how much of
// the program escapes the graph.
//
// The graph deliberately excludes call sites inside *ast.FuncLit
// bodies: a closure runs when something invokes the function value, not
// when its enclosing function executes, and attributing its calls to
// the encloser would poison held-region and summary analyses with work
// that may happen on another goroutine or not at all. This matches the
// flow analyzers' treatment of FuncLit and is documented as a soundness
// limit (DESIGN.md §14).
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
	funcs []*FuncNode // deterministic order: by file position
	// DynamicSites counts call sites that resolve to no node: calls
	// through function values, builtins and conversions.
	DynamicSites int
	edges        int
}

// FuncNode is one declared function or method with a body.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	File *ast.File // the file declaring Decl, for its waiver directives
	Pkg  *Package
	// Calls lists the node's resolved call sites in source order. One
	// *ast.CallExpr appears once per CHA candidate.
	Calls []CallSite
}

// CallSite is one resolved edge origin.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the resolved target; it may or may not have a body in a
	// target package (stdlib callees resolve but have no FuncNode).
	Callee *types.Func
	// CHA marks an interface-dispatch candidate rather than a static
	// resolution.
	CHA bool
}

// Node returns the graph node for fn, or nil when fn has no body in a
// target package.
func (g *CallGraph) Node(fn *types.Func) *FuncNode { return g.nodes[fn] }

// Funcs returns every node in deterministic (position) order.
func (g *CallGraph) Funcs() []*FuncNode { return g.funcs }

// NumFuncs and NumEdges size the graph for -stats.
func (g *CallGraph) NumFuncs() int { return len(g.funcs) }
func (g *CallGraph) NumEdges() int { return g.edges }

// BuildCallGraph constructs the graph over every target package.
func BuildCallGraph(fset *token.FileSet, all []*Package) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*FuncNode)}

	// Pass 1: one node per function declaration with a body.
	for _, pkg := range all {
		if !pkg.Target || pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &FuncNode{Fn: fn, Decl: fd, File: file, Pkg: pkg}
			}
		}
	}

	// CHA index: every named type declared in a target package, for
	// interface-call fan-out.
	var chaTypes []*types.Named
	for _, pkg := range all {
		if !pkg.Target || pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				chaTypes = append(chaTypes, named)
			}
		}
	}

	// Pass 2: resolve call sites, skipping FuncLit bodies.
	for _, node := range g.nodes {
		g.resolveCalls(node)
	}

	g.funcs = make([]*FuncNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		g.funcs = append(g.funcs, n)
	}
	sort.Slice(g.funcs, func(i, j int) bool { return g.funcs[i].Decl.Pos() < g.funcs[j].Decl.Pos() })

	// CHA expansion runs after static resolution so DynamicSites only
	// counts truly unresolvable sites.
	for _, n := range g.funcs {
		g.expandInterfaceCalls(n, chaTypes)
	}
	return g
}

// resolveCalls records the statically-resolvable call sites of a node.
func (g *CallGraph) resolveCalls(node *FuncNode) {
	info := node.Pkg.Info
	WalkSkipFuncLit(node.Decl.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := Callee(info, call)
		if fn == nil {
			// Builtins and conversions are not calls through values;
			// only count sites whose Fun is a value expression.
			if isDynamicCall(info, call) {
				g.DynamicSites++
			}
			return
		}
		node.Calls = append(node.Calls, CallSite{Call: call, Callee: fn})
		g.edges++
	})
}

// expandInterfaceCalls adds CHA candidates for call sites whose static
// callee is an interface method: every same-named method on a
// target-package type implementing the interface.
func (g *CallGraph) expandInterfaceCalls(node *FuncNode, chaTypes []*types.Named) {
	var extra []CallSite
	for _, cs := range node.Calls {
		iface := interfaceRecv(cs.Callee)
		if iface == nil {
			continue
		}
		for _, named := range chaTypes {
			var impl types.Type = named
			if !types.Implements(impl, iface) {
				impl = types.NewPointer(named)
				if !types.Implements(impl, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, cs.Callee.Pkg(), cs.Callee.Name())
			m, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if m.Name() != cs.Callee.Name() {
				continue
			}
			if g.nodes[m] == nil {
				continue // no body in a target package: nothing to walk into
			}
			extra = append(extra, CallSite{Call: cs.Call, Callee: m, CHA: true})
		}
	}
	node.Calls = append(node.Calls, extra...)
	g.edges += len(extra)
}

// interfaceRecv returns the interface type of an abstract method's
// receiver, or nil for concrete methods and plain functions.
func interfaceRecv(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// isDynamicCall reports whether call invokes a function value (as
// opposed to a builtin or a type conversion).
func isDynamicCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := info.Uses[fun]
		switch obj.(type) {
		case *types.Var:
			return true // a function-typed variable or parameter
		case *types.Builtin, *types.TypeName, nil:
			return false
		}
		return false
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			return true // a function-typed struct field
		}
		return false
	case *ast.FuncLit:
		return true // immediately-invoked literal; body walked separately? no — skipped
	default:
		return true // call of an arbitrary expression
	}
}

// WalkSkipFuncLit visits every node of n except function literals and
// their bodies: a closure runs when it is invoked, not where it is
// written.
func WalkSkipFuncLit(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// Reachable computes, for a seed predicate over nodes, the set of
// functions from which a seed function is reachable through the graph
// (callers of seeds, transitively). It is the shared fix-point used by
// the interprocedural analyzers' "may reach" summaries. The returned
// map carries, per function, one witness path (callee chain) to the
// seed for diagnostics.
func (g *CallGraph) Reachable(seed func(*FuncNode) bool) map[*types.Func][]*types.Func {
	out := make(map[*types.Func][]*types.Func)
	for _, n := range g.funcs {
		if seed(n) {
			out[n.Fn] = nil
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.funcs {
			if _, done := out[n.Fn]; done {
				continue
			}
			for _, cs := range n.Calls {
				chain, ok := out[cs.Callee]
				if !ok {
					continue
				}
				witness := append([]*types.Func{cs.Callee}, chain...)
				out[n.Fn] = witness
				changed = true
				break
			}
		}
	}
	return out
}

// PosOf is a small helper for deterministic diagnostics.
func PosOf(fset *token.FileSet, n ast.Node) token.Position { return fset.Position(n.Pos()) }

// Package ctxflow enforces cancellation-responsiveness on the query
// path. The testbed's cooperative-cancellation design (PR 4) relies on
// every potentially long-running loop polling its context: a `for {}`
// loop in rtlib (recursive evaluation), exec (operator cursors) or
// server (session service loops) that never observes ctx.Done()/
// ctx.Err() keeps a cancelled query burning CPU until the loop happens
// to drain.
//
// The check is interprocedural: a loop observes the context if its body
// calls context.Context.Done or .Err directly, or calls any module
// function that transitively does (rtlib's evaluator.checkCtx is the
// canonical observer — it amortizes ctx.Err polling behind a counter).
// Only condition-less `for {}` loops are flagged: a bounded `for i :=
// ...` or `range` loop terminates on its own.
//
// Loops whose termination is driven by other means — a server accept
// loop that exits when the listener closes, a session read loop bounded
// by the connection lifetime — are waived at the loop line with
// `//dkblint:ctxok <reason>`; the justification is mandatory.
//
// Soundness limits (DESIGN.md §14): observation behind a function value
// or an interface method outside the CHA set is invisible and reports a
// false positive (waive it); conversely a loop that observes ctx but
// ignores the result still passes — the analyzer proves polling, not
// correct reaction.
package ctxflow

import (
	"go/ast"
	"go/types"

	"dkbms/internal/lint/lintkit"
)

// Analyzer is the ctxflow pass.
var Analyzer = &lintkit.Analyzer{
	Name:   "ctxflow",
	Doc:    "unbounded loops in query-path packages (rtlib, exec, server) observe ctx.Done/ctx.Err (waive with //dkblint:ctxok <reason>)",
	Run:    run,
	Module: true,
}

// queryPathPkgs are the package names whose loops sit on the query
// path. Matching is by name so fixtures can stand in for the engine.
var queryPathPkgs = map[string]bool{
	"rtlib":  true,
	"exec":   true,
	"server": true,
}

func run(pass *lintkit.Pass) error {
	cg := pass.Cache.CallGraph(pass.Fset, pass.All)

	// Fix-point: the set of module functions that observe the context,
	// directly or through a callee.
	observers := map[*types.Func]bool{}
	for _, node := range cg.Funcs() {
		if observesDirectly(node) {
			observers[node.Fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, node := range cg.Funcs() {
			if observers[node.Fn] {
				continue
			}
			for _, cs := range node.Calls {
				if observers[cs.Callee] {
					observers[node.Fn] = true
					changed = true
					break
				}
			}
		}
	}

	for _, node := range cg.Funcs() {
		if !queryPathPkgs[node.Pkg.Name] {
			continue
		}
		info := node.Pkg.Info
		var waived map[int]string
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			if loopObserves(info, loop.Body, observers) {
				return true
			}
			if waived == nil {
				waived = lintkit.WaivedLines(pass.Fset, node.File, "ctxok")
			}
			if _, ok := waived[pass.Fset.Position(loop.Pos()).Line]; ok {
				return true
			}
			pass.Reportf(loop.Pos(), "unbounded for-loop in query-path package %s never observes the context; poll ctx.Done/ctx.Err in the loop body or waive with //dkblint:ctxok <reason>",
				node.Pkg.Name)
			return true
		})
	}
	return nil
}

// observesDirectly reports whether the function's own body (function
// literals excluded — they run on their own schedule) calls
// context.Context.Done or .Err.
func observesDirectly(node *lintkit.FuncNode) bool {
	info := node.Pkg.Info
	found := false
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isCtxCall(info, call) {
			found = true
		}
		return !found
	})
	return found
}

// loopObserves reports whether the loop body contains a context
// observation at its own level: a direct Done/Err call, or a call to a
// transitively-observing module function.
func loopObserves(info *types.Info, body *ast.BlockStmt, observers map[*types.Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if isCtxCall(info, call) {
			found = true
			return false
		}
		if fn := lintkit.Callee(info, call); fn != nil && observers[fn] {
			found = true
			return false
		}
		return true
	})
	return found
}

// isCtxCall matches ctx.Done() / ctx.Err() — methods of the
// context.Context interface.
func isCtxCall(info *types.Info, call *ast.CallExpr) bool {
	fn := lintkit.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Done" || fn.Name() == "Err"
}

// Package gofanout flags unbounded goroutine fan-out: a `go` statement
// inside a for/range loop with nothing in the loop limiting how many
// launches can be in flight at once. One query spawning a goroutine per
// rule is harmless until 32 sessions each do it: concurrency must be
// bounded by a fixed limit, not by input size.
//
// A launch counts as bounded when the innermost enclosing loop acquires
// a slot before the `go` statement:
//
//   - a channel send (`sem <- struct{}{}` on a buffered channel is the
//     canonical acquire-before-launch idiom),
//   - a channel receive (`<-tokens` draining a pre-filled token bucket),
//   - a call to a method named Acquire (semaphore objects).
//
// Launches whose count is intrinsically fixed (one worker per pool
// slot, one drainer per fixed shard) are waived with a
// `//dkblint:bounded` comment on the `go` statement's line or the line
// above it.
package gofanout

import (
	"go/ast"
	"go/token"

	"dkbms/internal/lint/lintkit"
)

// Analyzer is the gofanout pass.
var Analyzer = &lintkit.Analyzer{
	Name: "gofanout",
	Doc:  "no unbounded `go` inside loops: acquire a semaphore slot first, submit to a pool, or waive with //dkblint:bounded",
	Run:  run,
}

func run(pass *lintkit.Pass) error {
	for _, file := range pass.Pkg.Files {
		waived := lintkit.WaivedLines(pass.Fset, file, "bounded")
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, waived)
		}
	}
	return nil
}

// loopBody returns the body of a for or range statement, or nil.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch s := n.(type) {
	case *ast.ForStmt:
		return s.Body
	case *ast.RangeStmt:
		return s.Body
	}
	return nil
}

func checkFunc(pass *lintkit.Pass, fn *ast.FuncDecl, waived map[int]string) {
	// loops is the stack of enclosing loop bodies at the current walk
	// position; function literals push a frame boundary (a goroutine
	// launched per iteration of a loop *outside* the literal is the
	// literal caller's problem, and `go` inside a literal inside a loop
	// in the same function is still per-iteration, so only the literal
	// boundary resets the stack).
	type frame struct{ loops []*ast.BlockStmt }
	stack := []*frame{{}}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			stack = append(stack, &frame{})
			walk(s.Body)
			stack = stack[:len(stack)-1]
			return
		case *ast.GoStmt:
			cur := stack[len(stack)-1]
			if len(cur.loops) > 0 {
				inner := cur.loops[len(cur.loops)-1]
				line := pass.Fset.Position(s.Pos()).Line
				if _, ok := waived[line]; !ok && !acquiresBefore(inner, s) {
					pass.Reportf(s.Pos(), "goroutine launched per loop iteration with no concurrency bound (acquire a semaphore slot before `go`, submit to a worker pool, or waive with //dkblint:bounded)")
				}
			}
			// The launched call's arguments and body still deserve a
			// look (a loop inside the goroutine is its own frame only
			// when it is a FuncLit, which the case above handles).
			walk(s.Call)
			return
		}
		if body := loopBody(n); body != nil {
			cur := stack[len(stack)-1]
			cur.loops = append(cur.loops, body)
			// Walk the loop header too (range expression, init/cond/post).
			ast.Inspect(n, func(m ast.Node) bool {
				if m == n {
					return true
				}
				walk(m)
				return false
			})
			cur.loops = cur.loops[:len(cur.loops)-1]
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			walk(m)
			return false
		})
	}
	walk(fn.Body)
}

// acquiresBefore reports whether the loop body performs a slot acquire
// (channel send, channel receive, or an Acquire call) at a position
// before the go statement, outside the go statement itself.
func acquiresBefore(body *ast.BlockStmt, g *ast.GoStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		if n.Pos() >= g.Pos() && n != body {
			return false
		}
		switch e := n.(type) {
		case *ast.GoStmt:
			if e == g {
				return false
			}
		case *ast.SendStmt:
			found = true
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
				return false
			}
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Acquire" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

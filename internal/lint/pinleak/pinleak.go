// Package pinleak is the suite's interprocedural must-release analyzer.
// It generalizes the old pinpair pass (buffer-pool page pins) to every
// counted resource the engine hands out and owns by protocol:
//
//	page      storage.Pager.Fetch/Allocate/AllocateReusable/AllocateTemp → Pager.Unpin(pg)
//	snapshot  snapshot.Store.Acquire                                     → Snapshot.Release()
//	group     sched.Pool.Group                                           → Group.Wait()
//
// Each acquisition must reach its release on every control-flow path
// out of the acquiring function — early error returns included — unless
// ownership demonstrably transfers. A `defer` of the release satisfies
// all paths, panics included. A leaked page pin wedges a frame in the
// buffer pool forever; a leaked snapshot pin blocks epoch reclamation and
// pins every superseded version chain in memory; an un-waited group
// leaves the tasks no slot took unrun.
//
// Unlike pinpair, the analysis crosses function boundaries:
//
//   - Passing the resource to a callee consults the callee's parameter
//     summary, computed by fix-point over the call graph: a callee that
//     releases the parameter counts as the release; one that stores or
//     returns it takes ownership (tracking ends); one that only reads
//     it leaves the obligation with the caller — where pinpair had to
//     assume any call transferred ownership.
//   - A function that returns a resource it acquired (directly or via
//     another such function) is an owner-returning source: its callers
//     inherit the release obligation at the call site, with the same
//     error-branch pruning as a direct acquisition. This closes the
//     gap pinpair left at wrappers like the testbed's snapshot
//     acquire-with-closed-recheck.
//
// `//dkblint:pinsafe <reason>` waives the acquisition on its own or the
// next line; the justification is mandatory (directives analyzer).
// Soundness limits (DESIGN.md §14): calls through function values and
// interface dispatch outside the CHA set are invisible, so a release
// performed only behind a function value is reported as a leak, and
// aliasing through data structures ends tracking instead of following
// the alias.
package pinleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"dkbms/internal/lint/lintkit"
)

// Analyzer is the pinleak pass.
var Analyzer = &lintkit.Analyzer{
	Name:   "pinleak",
	Doc:    "every page pin, snapshot pin and task group is released on all paths (waive with //dkblint:pinsafe <reason>)",
	Run:    run,
	Module: true,
}

// kind describes one counted resource: how it is acquired, how it is
// released, and the named type that carries it. Packages match by name,
// not import path, so fixture stubs can stand in for the engine.
type kind struct {
	id   string
	noun string
	// Acquisition: a method on srcTyp (declared in package srcPkg) whose
	// name is in srcMethods returns an owned resource.
	srcPkg, srcTyp string
	srcMethods     map[string]bool
	// Release: either relMethod on relTyp taking the resource as its
	// argument (byArg — Pager.Unpin(pg)), or recvMethod invoked on the
	// resource itself (s.Release()).
	byArg                     bool
	relPkg, relTyp, relMethod string
	recvMethod                string
	// The resource's named type, for parameter summaries and
	// owner-return propagation.
	resPkg, resTyp string
}

func (k *kind) releaseName() string {
	if k.byArg {
		return k.relTyp + "." + k.relMethod
	}
	return k.resTyp + "." + k.recvMethod
}

var kinds = []*kind{
	{
		id: "page", noun: "page pinned by",
		srcPkg: "storage", srcTyp: "Pager",
		srcMethods: map[string]bool{"Fetch": true, "Allocate": true, "AllocateReusable": true, "AllocateTemp": true},
		byArg:      true, relPkg: "storage", relTyp: "Pager", relMethod: "Unpin",
		resPkg: "storage", resTyp: "Page",
	},
	{
		id: "snapshot", noun: "snapshot pinned by",
		srcPkg: "snapshot", srcTyp: "Store",
		srcMethods: map[string]bool{"Acquire": true},
		recvMethod: "Release",
		resPkg:     "snapshot", resTyp: "Snapshot",
	},
	{
		id: "group", noun: "task group from",
		srcPkg: "sched", srcTyp: "Pool",
		srcMethods: map[string]bool{"Group": true},
		recvMethod: "Wait",
		resPkg:     "sched", resTyp: "Group",
	},
}

// resourceKind matches a (possibly pointer) type against the kinds.
func resourceKind(t types.Type) *kind {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	pkg, name := named.Obj().Pkg().Name(), named.Obj().Name()
	for _, k := range kinds {
		if k.resPkg == pkg && k.resTyp == name {
			return k
		}
	}
	return nil
}

// paramClass is a callee parameter's effect on a resource passed to it.
type paramClass int

const (
	classReadonly paramClass = iota // observed only: obligation stays with the caller
	classReleases                   // the callee releases it: counts as the release
	classEscapes                    // the callee keeps it: ownership transfers
)

type ev struct {
	pass         *lintkit.Pass
	cg           *lintkit.CallGraph
	params       map[*types.Var]paramClass // resource-typed params with effects
	ownerSources map[*types.Func]*kind     // functions returning an owned resource
	waived       map[*ast.File]map[int]string
}

func run(pass *lintkit.Pass) error {
	e := &ev{
		pass:         pass,
		cg:           pass.Cache.CallGraph(pass.Fset, pass.All),
		params:       map[*types.Var]paramClass{},
		ownerSources: map[*types.Func]*kind{},
		waived:       map[*ast.File]map[int]string{},
	}
	e.summarizeParams()
	e.findOwnerSources()
	for _, node := range e.cg.Funcs() {
		e.checkBody(node, node.Decl.Body)
		// Closures get their own flow graph: an acquisition inside one
		// must release within the closure (or defer there).
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				e.checkBody(node, fl.Body)
			}
			return true
		})
	}
	return nil
}

// sourceCall resolves a call to the resource kind it acquires, from the
// primary sources or an owner-returning function.
func (e *ev) sourceCall(info *types.Info, call *ast.CallExpr) *kind {
	fn := lintkit.Callee(info, call)
	if fn == nil {
		return nil
	}
	for _, k := range kinds {
		if k.srcMethods[fn.Name()] && lintkit.PkgName(fn) == k.srcPkg &&
			lintkit.ReceiverTypeName(fn) == k.srcTyp {
			return k
		}
	}
	return e.ownerSources[fn]
}

// isReleaseCall reports whether call releases the resource held in obj
// (by the kind's own release op, or by a callee summarized as
// releasing its parameter).
func (e *ev) isReleaseCall(info *types.Info, call *ast.CallExpr, k *kind, isObj func(*ast.Ident) bool) bool {
	fn := lintkit.Callee(info, call)
	if fn == nil {
		return false
	}
	if k.byArg {
		if fn.Name() == k.relMethod && lintkit.PkgName(fn) == k.relPkg &&
			lintkit.ReceiverTypeName(fn) == k.relTyp && len(call.Args) == 1 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && isObj(id) {
				return true
			}
		}
	} else if fn.Name() == k.recvMethod && lintkit.PkgName(fn) == k.resPkg &&
		lintkit.ReceiverTypeName(fn) == k.resTyp {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && isObj(id) {
				return true
			}
		}
	}
	// A callee summarized as releasing its resource parameter.
	cls, known := e.argClass(info, call, isObj)
	return known && cls == classReleases
}

// argClass looks up the parameter summary for the argument position
// where obj is passed. known is false when obj is not an argument, or
// the callee is outside the graph.
func (e *ev) argClass(info *types.Info, call *ast.CallExpr, isObj func(*ast.Ident) bool) (paramClass, bool) {
	argIdx := -1
	for i, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && isObj(id) {
			argIdx = i
			break
		}
	}
	if argIdx < 0 {
		return classReadonly, false
	}
	fn := lintkit.Callee(info, call)
	if fn == nil || e.cg.Node(fn) == nil {
		return classEscapes, true // unknown callee: assume ownership transfer
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || argIdx >= sig.Params().Len() {
		return classEscapes, true // lands in a variadic tail or mismatch
	}
	if sig.Variadic() && argIdx == sig.Params().Len()-1 {
		return classEscapes, true
	}
	p := sig.Params().At(argIdx)
	if resourceKind(p.Type()) == nil {
		return classEscapes, true // not tracked through a non-resource param
	}
	return e.params[p], true
}

// summarizeParams computes the per-parameter effect summaries by
// fix-point: release and escape facts flow from callees to callers.
func (e *ev) summarizeParams() {
	for changed := true; changed; {
		changed = false
		for _, node := range e.cg.Funcs() {
			sig, ok := node.Fn.Type().(*types.Signature)
			if !ok {
				continue
			}
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				k := resourceKind(p.Type())
				if k == nil {
					continue
				}
				cls := e.classifyParam(node, p, k)
				if cls > e.params[p] {
					e.params[p] = cls
					changed = true
				}
			}
		}
	}
}

// classifyParam scans one function body for what it does with a
// resource parameter. Escape dominates release: a callee that keeps
// the resource on any path owns it, and the caller must not assume a
// release happened.
func (e *ev) classifyParam(node *lintkit.FuncNode, p *types.Var, k *kind) paramClass {
	info := node.Pkg.Info
	isObj := func(id *ast.Ident) bool { return info.Uses[id] == p || info.Defs[id] == p }
	cls := classReadonly
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if e.isReleaseCall(info, n, k, isObj) {
				if cls < classReleases {
					cls = classReleases
				}
				return true
			}
			if c, known := e.argClass(info, n, isObj); known && c > cls {
				cls = c
			}
		case *ast.ReturnStmt:
			if returnsObj(n, isObj) {
				cls = classEscapes
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && isObj(id) {
					cls = classEscapes
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && usesIdent(n.X, isObj) {
				cls = classEscapes
			}
		case *ast.CompositeLit:
			if usesIdent(n, isObj) {
				cls = classEscapes
			}
			return false
		case *ast.SendStmt:
			if usesIdent(n.Value, isObj) {
				cls = classEscapes
			}
		case *ast.FuncLit:
			if usesIdent(n.Body, isObj) {
				cls = classEscapes
			}
			return false
		}
		return true
	})
	return cls
}

// findOwnerSources marks functions that return a resource they
// acquired: their callers inherit the release obligation. Fix-point,
// since wrappers can stack.
func (e *ev) findOwnerSources() {
	for changed := true; changed; {
		changed = false
		for _, node := range e.cg.Funcs() {
			if e.ownerSources[node.Fn] != nil {
				continue
			}
			if k := e.returnsOwned(node); k != nil {
				e.ownerSources[node.Fn] = k
				changed = true
			}
		}
	}
}

func (e *ev) returnsOwned(node *lintkit.FuncNode) *kind {
	info := node.Pkg.Info
	var found *kind
	// Only the declared body: a closure returning a resource does not
	// make its encloser an owner source.
	lintkit.WalkSkipFuncLit(node.Decl.Body, func(n ast.Node) {
		if found != nil {
			return
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		k := e.sourceCall(info, call)
		if k == nil || len(as.Lhs) == 0 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := objOf(info, id)
		if obj == nil {
			return
		}
		isObj := func(x *ast.Ident) bool { return objOf(info, x) == obj }
		lintkit.WalkSkipFuncLit(node.Decl.Body, func(m ast.Node) {
			if ret, ok := m.(*ast.ReturnStmt); ok && returnsObj(ret, isObj) {
				found = k
			}
		})
	})
	return found
}

// checkBody finds the acquisitions directly inside one body (the
// declared function's, or a closure's) and runs the must-release query
// for each against that body's own flow graph.
func (e *ev) checkBody(node *lintkit.FuncNode, body *ast.BlockStmt) {
	info := node.Pkg.Info
	var cfg *lintkit.CFG

	lintkit.WalkSkipFuncLit(body, func(n ast.Node) {
		// Bare source call as a statement: acquired and dropped.
		if es, ok := n.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if k := e.sourceCall(info, call); k != nil && !e.isWaived(node, call.Pos()) {
					e.pass.Reportf(call.Pos(), "%s %s is discarded without %s",
						k.noun, calleeName(info, call), k.releaseName())
				}
			}
			return
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		k := e.sourceCall(info, call)
		if k == nil || len(as.Lhs) == 0 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return // stored into a field/index at birth: owner changed
		}
		if e.isWaived(node, call.Pos()) {
			return
		}
		if id.Name == "_" {
			e.pass.Reportf(as.Pos(), "%s %s is discarded without %s",
				k.noun, calleeName(info, call), k.releaseName())
			return
		}
		obj := objOf(info, id)
		if obj == nil {
			return
		}
		if cfg == nil {
			cfg = lintkit.BuildCFG(body)
		}
		if cfg.Unsupported {
			return
		}
		var errObj types.Object
		if len(as.Lhs) == 2 {
			if eid, ok := as.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
				errObj = objOf(info, eid)
			}
		}
		e.checkAcquire(node, body, cfg, as, call, k, obj, errObj)
	})
}

// checkAcquire is the per-acquisition must-release query, the direct
// descendant of pinpair's checkPin.
func (e *ev) checkAcquire(node *lintkit.FuncNode, body *ast.BlockStmt, cfg *lintkit.CFG,
	acquire ast.Stmt, call *ast.CallExpr, k *kind, obj, errObj types.Object) {
	info := node.Pkg.Info
	isObj := func(id *ast.Ident) bool { return objOf(info, id) == obj }

	isReleaseNode := func(n ast.Node) bool {
		released := false
		ast.Inspect(n, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok && e.isReleaseCall(info, c, k, isObj) {
				released = true
				return false
			}
			return true
		})
		return released
	}

	// escapesNode: ownership leaves this frame. Calls consult the callee
	// parameter summary — a readonly callee keeps tracking alive, the
	// upgrade over pinpair's assume-transfer rule.
	var escapesNode func(n ast.Node) bool
	escapesNode = func(n ast.Node) bool {
		escaped := false
		ast.Inspect(n, func(m ast.Node) bool {
			if escaped {
				return false
			}
			switch m := m.(type) {
			case *ast.CallExpr:
				if e.isReleaseCall(info, m, k, isObj) {
					return false // the release, not an escape
				}
				if cls, known := e.argClass(info, m, isObj); known && cls == classEscapes {
					escaped = true
					return false
				}
				return true
			case *ast.SelectorExpr:
				if escapesNode(m.X) {
					escaped = true
				}
				return false
			case *ast.AssignStmt:
				for _, rhs := range m.Rhs {
					if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && isObj(id) {
						escaped = true // aliased: tracking ends
						return false
					}
				}
				return true
			case *ast.ReturnStmt:
				if usesIdent(m, isObj) {
					escaped = true // owner-return: callers inherit the obligation
					return false
				}
				return true
			case *ast.UnaryExpr:
				if m.Op == token.AND && usesIdent(m.X, isObj) {
					escaped = true
					return false
				}
				return true
			case *ast.CompositeLit:
				if usesIdent(m, isObj) {
					escaped = true
				}
				return false
			case *ast.FuncLit:
				if usesIdent(m.Body, isObj) {
					escaped = true
				}
				return false
			case *ast.SendStmt:
				if usesIdent(m.Value, isObj) {
					escaped = true
					return false
				}
				return true
			}
			return true
		})
		return escaped
	}

	// A deferred release in this body covers every path out of it.
	deferSatisfied := false
	lintkit.WalkSkipFuncLit(body, func(n ast.Node) {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return
		}
		if isReleaseNode(d.Call) {
			deferSatisfied = true
		} else if fl, ok := d.Call.Fun.(*ast.FuncLit); ok && isReleaseNode(fl.Body) {
			deferSatisfied = true
		}
	})
	if deferSatisfied {
		return
	}

	onHeadline := func(s ast.Stmt, pred func(ast.Node) bool) bool {
		for _, h := range lintkit.Headline(s) {
			if pred(h) {
				return true
			}
		}
		return false
	}
	release := func(s ast.Stmt) bool { return onHeadline(s, isReleaseNode) }
	kill := func(s ast.Stmt) bool { return onHeadline(s, escapesNode) }

	// Prune branches only reachable when the acquisition failed.
	skipEdge := func(ec lintkit.EdgeCond) bool {
		if errObj == nil {
			return false
		}
		bin, ok := ast.Unparen(ec.Cond).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
			return false
		}
		errSide := bin.X
		if isNilIdent(bin.X) {
			errSide = bin.Y
		} else if !isNilIdent(bin.Y) {
			return false
		}
		id, ok := ast.Unparen(errSide).(*ast.Ident)
		if !ok || objOf(info, id) != errObj {
			return false
		}
		return (bin.Op == token.NEQ) != ec.Negated
	}

	srcName := calleeName(info, call)
	if leakAt, found := cfg.ReachesExitWithout(acquire, release, kill, skipEdge); found {
		switch {
		case leakAt == acquire:
			e.pass.Reportf(acquire.Pos(), "%s %s is still held when the loop re-acquires; the previous one leaks (release with %s)",
				k.noun, srcName, k.releaseName())
		case leakAt != nil:
			e.pass.Reportf(acquire.Pos(), "%s %s is not released on the path to %s: missing %s",
				k.noun, srcName, e.pass.Fset.Position(leakAt.Pos()), k.releaseName())
		default:
			e.pass.Reportf(acquire.Pos(), "%s %s may leave the function without %s",
				k.noun, srcName, k.releaseName())
		}
	}
}

// isWaived reports whether a pinsafe directive covers pos, a position
// in node's body.
func (e *ev) isWaived(node *lintkit.FuncNode, pos token.Pos) bool {
	w, ok := e.waived[node.File]
	if !ok {
		w = lintkit.WaivedLines(e.pass.Fset, node.File, "pinsafe")
		e.waived[node.File] = w
	}
	_, hit := w[e.pass.Fset.Position(pos).Line]
	return hit
}

// --- small helpers ---

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// returnsObj reports whether the resource itself is one of the return
// statement's result expressions ("return pg" — not "return pg.Data",
// which only reads through it).
func returnsObj(ret *ast.ReturnStmt, isObj func(*ast.Ident) bool) bool {
	for _, r := range ret.Results {
		if id, ok := ast.Unparen(r).(*ast.Ident); ok && isObj(id) {
			return true
		}
	}
	return false
}

func usesIdent(n ast.Node, isObj func(*ast.Ident) bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && isObj(id) {
			found = true
			return false
		}
		return true
	})
	return found
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	fn := lintkit.Callee(info, call)
	if fn == nil {
		return "call"
	}
	if recv := lintkit.ReceiverTypeName(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

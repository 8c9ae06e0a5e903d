package lintkit

import (
	"go/ast"
	"go/types"
)

// MutexOp is one Lock/RLock/Unlock/RUnlock call on a sync.Mutex or
// sync.RWMutex, decoded for lockorder's release pairing and
// acquisition-order graph.
type MutexOp struct {
	Call *ast.CallExpr
	Op   string // Lock, RLock, Unlock, RUnlock
	// Recv is types.ExprString of the mutex expression, for pairing an
	// acquire with its release inside one function.
	Recv string
	// Owner of the mutex when it is a struct field (c.mu, p.flMu, ...):
	// the declaring package and type names and the field name. A
	// package-level mutex var sets OwnerPkg and Field (no OwnerTyp);
	// local mutex variables leave all three empty.
	OwnerPkg, OwnerTyp, Field string
}

// Acquires reports whether the op takes the lock.
func (op *MutexOp) Acquires() bool { return op.Op == "Lock" || op.Op == "RLock" }

// ClassID returns the lock's class identity for the global lock-order
// graph — "pkg.Type.field" for struct-field mutexes, "pkg.var" for
// package-level ones — or "" for local mutex variables, which have no
// stable cross-function identity and stay out of the graph.
func (op *MutexOp) ClassID() string {
	switch {
	case op.OwnerTyp != "":
		return op.OwnerPkg + "." + op.OwnerTyp + "." + op.Field
	case op.OwnerPkg != "":
		return op.OwnerPkg + "." + op.Field
	}
	return ""
}

// UnlockFor maps an acquire op name to its release op name.
func UnlockFor(op string) string {
	if op == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// AsMutexOp decodes a call as a mutex operation, or returns nil.
func AsMutexOp(info *types.Info, call *ast.CallExpr) *MutexOp {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil
	}
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	switch ReceiverTypeName(fn) {
	case "Mutex", "RWMutex":
	default:
		return nil
	}
	op := &MutexOp{Call: call, Op: sel.Sel.Name, Recv: types.ExprString(sel.X)}
	// Resolve the owning struct when the mutex is a field; a
	// package-level var resolves to its declaring package.
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok && v.Pkg() != nil {
				op.Field = v.Name()
				op.OwnerPkg = v.Pkg().Name()
				t := s.Recv()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					op.OwnerTyp = named.Obj().Name()
				}
			}
		} else if id, ok := x.X.(*ast.Ident); ok {
			// pkg.muVar.Lock(): a package-qualified top-level mutex.
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
					op.Field = v.Name()
					op.OwnerPkg = v.Pkg().Name()
				}
			}
		}
	case *ast.Ident:
		// A bare identifier: a package-level mutex in the same package,
		// or a local variable (left untracked).
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			op.Field = v.Name()
			op.OwnerPkg = v.Pkg().Name()
		}
	}
	return op
}

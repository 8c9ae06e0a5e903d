// Package lockorder is the suite's lock analyzer. It tracks Lock/RLock
// acquisitions of every struct-field and package-level
// sync.Mutex/RWMutex through the module call graph and enforces three
// rules:
//
//  1. The global lock-acquisition order must be acyclic. Every "lock B
//     acquired (directly or through any call chain) while lock A is
//     held" contributes an A → B edge to a module-wide graph keyed by
//     lock *class* (declaring package, type and field — instances of a
//     class share a node, the lockdep convention). A cycle means two
//     call paths can interleave into a deadlock even if no test
//     schedule has produced one yet.
//
//  2. No blocking operation is reached while a lock is held: file and
//     network I/O (os / net), connection I/O through wire.WriteFrame and
//     wire.ReadFrame (whose io.Writer/io.Reader the call graph cannot
//     follow to the socket), time.Sleep, sync.WaitGroup.Wait and
//     channel operations, found directly in the held region or through
//     any resolved call chain. sync.Cond.Wait is exempt — it releases
//     the mutex it waits on.
//
//  3. Every Lock/RLock, of a lock class or of a local mutex, is
//     released on every path out of its function, explicitly or by a
//     defer in the function itself.
//
// Locks that are *designed* to be held across I/O — the engine's commit
// mutex serializes whole copy-on-write commits, the catalog's ddlMu
// serializes whole DDL operations including their heap I/O, and the
// buffer pool's latch (storage.Pager.mu) sanctions page write-back
// under it — are waived at the acquisition site with
// `//dkblint:locksafe <reason>`; the justification is mandatory (the
// directives analyzer rejects bare waivers). A waiver covers rule 2 only. The waived region's edges stay
// in the graph and a cycle through them is reported at every witness,
// waived or not, so a waived pool latch still may not re-enter the
// pager or take Pager.flMu.
//
// Soundness limits (see DESIGN.md §14): calls through function values
// and code inside function literals are invisible to the call graph;
// interface calls fan out CHA-style to every implementing type in the
// module (over-approximate); lock classes collapse instances, so a
// self-edge is reported as a potential self-deadlock even when the two
// instances provably differ; `go` statements inside a held region are
// treated as not running under the lock.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"dkbms/internal/lint/lintkit"
)

// GraphKey is the cache key under which the analyzer publishes its
// *Graph for -stats and the module pin test.
const GraphKey = "lockorder.graph"

// Analyzer is the lockorder pass.
var Analyzer = &lintkit.Analyzer{
	Name: "lockorder",
	Doc:  "the global lock-acquisition order is acyclic, no lock is held across a blocking call (waive with //dkblint:locksafe <reason>), and every lock is released on every path",
	Run:  run,
}

// Graph is the published lock-order graph summary.
type Graph struct {
	// Locks is the sorted set of lock classes discovered (graph nodes).
	Locks []string
	// OrderEdges counts distinct acquired-while-held pairs.
	OrderEdges int
	// BlockingSites counts held regions that reach a blocking operation
	// (waived ones included — the count sizes the audited surface).
	BlockingSites int
}

// edge is one acquired-while-held observation, with its first witness.
type edge struct {
	from, to string
	// pos anchors the report: the acquisition of `from` whose held
	// region reaches the acquisition of `to`.
	pos token.Pos
	via []string // call chain labels, empty for a direct acquisition
}

// blockInfo is one function's may-block summary: what it can block on
// and the call chain that reaches it.
type blockInfo struct {
	desc  string
	chain []string
}

func run(pass *lintkit.Pass) error {
	cg := pass.Cache.CallGraph(pass.Fset, pass.All)

	// Per-function direct facts.
	directAcq := make(map[*types.Func]map[string]bool)
	directBlock := make(map[*types.Func]*blockInfo)
	for _, node := range cg.Funcs() {
		acq, blk := directFacts(node)
		if len(acq) > 0 {
			directAcq[node.Fn] = acq
		}
		if blk != nil {
			directBlock[node.Fn] = blk
		}
	}

	// Transitive fix-point over the call graph: mayAcquire[fn] maps each
	// reachable lock class to the call chain that reaches its
	// acquisition; mayBlock[fn] carries one blocking witness.
	mayAcquire := make(map[*types.Func]map[string][]string)
	mayBlock := make(map[*types.Func]*blockInfo)
	for fn, acq := range directAcq {
		m := make(map[string][]string, len(acq))
		for id := range acq {
			m[id] = nil
		}
		mayAcquire[fn] = m
	}
	for fn, b := range directBlock {
		mayBlock[fn] = b
	}
	for changed := true; changed; {
		changed = false
		for _, node := range cg.Funcs() {
			for _, cs := range node.Calls {
				if calleeAcq, ok := mayAcquire[cs.Callee]; ok {
					m := mayAcquire[node.Fn]
					if m == nil {
						m = make(map[string][]string)
						mayAcquire[node.Fn] = m
					}
					label := calleeLabel(cs.Callee)
					for id, chain := range calleeAcq {
						if _, have := m[id]; !have {
							m[id] = append([]string{label}, chain...)
							changed = true
						}
					}
				}
				if b, ok := mayBlock[cs.Callee]; ok && mayBlock[node.Fn] == nil {
					mayBlock[node.Fn] = &blockInfo{desc: b.desc, chain: append([]string{calleeLabel(cs.Callee)}, b.chain...)}
					changed = true
				}
			}
		}
	}

	// Held-region scan: every explicit acquisition of a classed lock.
	var edges []edge
	lockSet := map[string]bool{}
	blockingSites := 0
	for _, node := range cg.Funcs() {
		es, blocked := scanFunc(pass, node, mayAcquire, mayBlock)
		edges = append(edges, es...)
		blockingSites += blocked
		for id := range directAcq[node.Fn] {
			lockSet[id] = true
		}
	}
	for _, e := range edges {
		lockSet[e.from] = true
		lockSet[e.to] = true
	}

	// Deduplicate edges (first witness wins; scan order is positional,
	// so the witness is deterministic).
	type key struct{ from, to string }
	dedup := map[key]*edge{}
	var order []key
	for i := range edges {
		k := key{edges[i].from, edges[i].to}
		if _, ok := dedup[k]; !ok {
			dedup[k] = &edges[i]
			order = append(order, k)
		}
	}

	// Cycle detection over the deduplicated edge set.
	adj := map[string][]string{}
	for _, k := range order {
		adj[k.from] = append(adj[k.from], k.to)
	}
	scc := stronglyConnected(lockSet, adj)
	for _, k := range order {
		e := dedup[k]
		inCycle := k.from == k.to || (scc[k.from] == scc[k.to] && sccSize(scc, scc[k.from]) > 1)
		if !inCycle {
			continue
		}
		cyc := cyclePath(k, adj, scc)
		via := ""
		if len(e.via) > 0 {
			via = " via " + strings.Join(e.via, " → ")
		}
		pass.Reportf(e.pos, "lock-order cycle: %s acquired%s while %s is held; cycle %s",
			e.to, via, e.from, cyc)
	}

	g := &Graph{OrderEdges: len(order), BlockingSites: blockingSites}
	for id := range lockSet {
		g.Locks = append(g.Locks, id)
	}
	sort.Strings(g.Locks)
	pass.Cache.Store(GraphKey, g)
	return nil
}

// directFacts scans one function body (outside function literals) for
// lock-class acquisitions and direct blocking evidence.
func directFacts(node *lintkit.FuncNode) (map[string]bool, *blockInfo) {
	info := node.Pkg.Info
	acq := map[string]bool{}
	var blk *blockInfo
	note := func(desc string) {
		if blk == nil {
			blk = &blockInfo{desc: desc}
		}
	}
	lintkit.WalkSkipFuncLit(node.Decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if op := lintkit.AsMutexOp(info, n); op != nil {
				if op.Acquires() {
					if id := op.ClassID(); id != "" {
						acq[id] = true
					}
				}
				return
			}
			if fn := lintkit.Callee(info, n); fn != nil {
				if desc := blockingCallee(fn); desc != "" {
					note(desc)
				}
			}
		case *ast.SendStmt:
			note("a channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				note("a channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				note("a blocking select")
			}
		}
	})
	return acq, blk
}

// scanFunc checks every acquisition of a function: that it is released
// on every path out, and, for a lock class, the order and blocking facts
// of its held region (a deferred release extends it to the function
// end).
func scanFunc(pass *lintkit.Pass, node *lintkit.FuncNode,
	mayAcquire map[*types.Func]map[string][]string, mayBlock map[*types.Func]*blockInfo) ([]edge, int) {

	info := node.Pkg.Info
	cfg := lintkit.BuildCFG(node.Decl.Body)
	if cfg.Unsupported {
		return nil, 0
	}
	waived := lintkit.WaivedLines(pass.Fset, node.File, "locksafe")

	type acquire struct {
		op   *lintkit.MutexOp
		stmt ast.Stmt
	}
	var acquires []acquire
	cfg.VisitFrom(nil, nil, func(s ast.Stmt) {
		for _, h := range lintkit.Headline(s) {
			lintkit.WalkSkipFuncLit(h, func(m ast.Node) {
				if call, ok := m.(*ast.CallExpr); ok {
					if op := lintkit.AsMutexOp(info, call); op != nil && op.Acquires() {
						acquires = append(acquires, acquire{op: op, stmt: s})
					}
				}
			})
		}
	})

	var edges []edge
	blockedSites := 0
	for _, a := range acquires {
		want := lintkit.UnlockFor(a.op.Op)
		isRelease := func(n ast.Node) bool {
			found := false
			lintkit.WalkSkipFuncLit(n, func(m ast.Node) {
				if call, ok := m.(*ast.CallExpr); ok {
					if op := lintkit.AsMutexOp(info, call); op != nil && op.Op == want && op.Recv == a.op.Recv {
						found = true
					}
				}
			})
			return found
		}
		releases := func(s ast.Stmt) bool {
			for _, h := range lintkit.Headline(s) {
				if isRelease(h) {
					return true
				}
			}
			return false
		}
		// Only the function's own defers count: one inside a function
		// literal runs when the literal returns.
		deferred := false
		lintkit.WalkSkipFuncLit(node.Decl.Body, func(n ast.Node) {
			if d, ok := n.(*ast.DeferStmt); ok {
				var released ast.Node = d.Call
				if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
					released = fl.Body
				}
				deferred = deferred || isRelease(released)
			}
		})
		stop := releases
		if deferred {
			stop = nil
		} else if leakAt, found := cfg.ReachesExitWithout(a.stmt, releases, nil, nil); found {
			if leakAt == a.stmt {
				pass.Reportf(a.op.Call.Pos(), "%s.%s is still held when the loop re-acquires it", a.op.Recv, a.op.Op)
			} else {
				pass.Reportf(a.op.Call.Pos(), "%s.%s is not released on every path out of %s (missing %s or defer)",
					a.op.Recv, a.op.Op, node.Decl.Name.Name, want)
			}
		}

		id := a.op.ClassID()
		if id == "" {
			continue // a local mutex has no class: release pairing only
		}
		var blocked *blockInfo
		var blockedAt token.Pos
		noteBlock := func(pos token.Pos, b *blockInfo) {
			if blocked == nil {
				blocked, blockedAt = b, pos
			}
		}
		cfg.VisitFrom(a.stmt, stop, func(s ast.Stmt) {
			switch s := s.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				// Deferred work runs after the release path decides;
				// go-routines run concurrently, not under this hold.
				return
			case *ast.SendStmt:
				noteBlock(s.Pos(), &blockInfo{desc: "a channel send"})
			case *ast.SelectStmt:
				if !selectHasDefault(s) {
					noteBlock(s.Pos(), &blockInfo{desc: "a blocking select"})
				}
			}
			for _, h := range lintkit.Headline(s) {
				lintkit.WalkSkipFuncLit(h, func(m ast.Node) {
					switch m := m.(type) {
					case *ast.UnaryExpr:
						if m.Op == token.ARROW {
							noteBlock(m.Pos(), &blockInfo{desc: "a channel receive"})
						}
					case *ast.CallExpr:
						if op := lintkit.AsMutexOp(info, m); op != nil {
							if to := op.ClassID(); op.Acquires() && to != "" && m != a.op.Call {
								edges = append(edges, edge{from: id, to: to, pos: a.op.Call.Pos()})
							}
							return
						}
						callee := lintkit.Callee(info, m)
						if callee == nil || isCondWait(callee) {
							return
						}
						if desc := blockingCallee(callee); desc != "" {
							noteBlock(m.Pos(), &blockInfo{desc: desc})
						}
						label := calleeLabel(callee)
						for to, chain := range mayAcquire[callee] {
							edges = append(edges, edge{from: id, to: to, pos: a.op.Call.Pos(),
								via: append([]string{label}, chain...)})
						}
						if b, ok := mayBlock[callee]; ok {
							noteBlock(m.Pos(), &blockInfo{desc: b.desc, chain: append([]string{label}, b.chain...)})
						}
					}
				})
			}
		})

		if blocked != nil {
			blockedSites++
			if _, isWaived := waived[pass.Fset.Position(a.op.Call.Pos()).Line]; !isWaived {
				via := ""
				if len(blocked.chain) > 0 {
					via = " (via " + strings.Join(blocked.chain, " → ") + ")"
				}
				pass.Reportf(blockedAt, "%s held across %s%s: %s.%s at %s blocks the lock's critical section; release first or waive with //dkblint:locksafe <reason>",
					id, blocked.desc, via, a.op.Recv, a.op.Op, pass.Fset.Position(a.op.Call.Pos()))
			}
		}
	}
	return edges, blockedSites
}

// blockingCallee classifies a callee as a known blocking operation.
// Stdlib packages match by import path; module packages match by
// package name, so fixtures can stand in for the real ones.
func blockingCallee(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	recv := lintkit.ReceiverTypeName(fn)
	switch {
	case path == "os" && recv == "File":
		switch name {
		case "Read", "ReadAt", "Write", "WriteAt", "Sync", "Close", "Seek", "Truncate":
			return "file I/O (os.File." + name + ")"
		}
	case path == "os" && recv == "":
		switch name {
		case "Open", "OpenFile", "Create", "Remove", "RemoveAll", "Rename", "ReadFile", "WriteFile", "Truncate", "Mkdir", "MkdirAll":
			return "file I/O (os." + name + ")"
		}
	case path == "net" || strings.HasPrefix(path, "net/"):
		return "network I/O (" + path + "." + name + ")"
	case path == "time" && name == "Sleep":
		return "time.Sleep"
	case path == "sync" && recv == "WaitGroup" && name == "Wait":
		return "sync.WaitGroup.Wait"
	}
	if lintkit.PkgName(fn) == "wire" && (name == "WriteFrame" || name == "ReadFrame") {
		return "connection I/O (wire." + name + ")"
	}
	return ""
}

func isCondWait(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		lintkit.ReceiverTypeName(fn) == "Cond" && fn.Name() == "Wait"
}

func calleeLabel(fn *types.Func) string {
	if recv := lintkit.ReceiverTypeName(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// --- cycle machinery ---

// stronglyConnected assigns each lock node an SCC id (Tarjan).
func stronglyConnected(nodes map[string]bool, adj map[string][]string) map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	comp := map[string]int{}
	counter, compID := 0, 0

	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)

	var strong func(v string)
	strong = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		succs := append([]string(nil), adj[v]...)
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = compID
				if w == v {
					break
				}
			}
			compID++
		}
	}
	for _, n := range names {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return comp
}

func sccSize(comp map[string]int, id int) int {
	n := 0
	for _, c := range comp {
		if c == id {
			n++
		}
	}
	return n
}

// cyclePath renders one cycle through edge k for the diagnostic:
// from → to → ... → from, following in-SCC edges.
func cyclePath(k struct{ from, to string }, adj map[string][]string, comp map[string]int) string {
	if k.from == k.to {
		return fmt.Sprintf("%s → %s", k.from, k.to)
	}
	// BFS from k.to back to k.from inside the SCC.
	type step struct {
		node string
		path []string
	}
	queue := []step{{node: k.to, path: []string{k.from, k.to}}}
	seen := map[string]bool{k.to: true}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		succs := append([]string(nil), adj[s.node]...)
		sort.Strings(succs)
		for _, w := range succs {
			if comp[w] != comp[k.from] {
				continue
			}
			if w == k.from {
				return strings.Join(append(s.path, w), " → ")
			}
			if !seen[w] {
				seen[w] = true
				queue = append(queue, step{node: w, path: append(append([]string(nil), s.path...), w)})
			}
		}
	}
	return k.from + " → " + k.to + " → … → " + k.from
}

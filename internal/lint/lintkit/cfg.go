package lintkit

import (
	"go/ast"
	"go/token"
)

// CFG is a statement-level control-flow graph of one function body,
// precise enough for the suite's reachability questions ("can control
// reach an exit from this node without passing a release?"). Expression
// short-circuiting is not modeled: a whole statement is one node, which
// is the right granularity for resource-pairing checks.
type CFG struct {
	Entry *Block
	// Exit is the single synthetic exit block; every return and the
	// fall-off-the-end path lead to it.
	Exit *Block
	// Unsupported is set when the body uses goto or labeled branches,
	// which the builder does not model; analyzers should then skip the
	// function rather than risk wrong edges.
	Unsupported bool
	blocks      []*Block
	conds       map[edge]EdgeCond
}

type edge struct{ from, to *Block }

// EdgeCond annotates an if-branch edge with the branch condition, so
// analyses can prune paths (e.g. the `err != nil` branch right after an
// acquisition that failed cannot hold the resource).
type EdgeCond struct {
	Cond    ast.Expr
	Negated bool // true on the else/fall-through edge
}

// Block is a straight-line run of statements with successor edges.
type Block struct {
	Nodes []ast.Stmt
	Succs []*Block
}

// BuildCFG constructs the graph for a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{conds: make(map[edge]EdgeCond)}
	g.Exit = g.newBlock()
	b := builder{g: g}
	g.Entry = g.newBlock()
	last := b.stmts(g.Entry, body.List)
	if last != nil {
		last.Succs = append(last.Succs, g.Exit) // fall off the end
	}
	return g
}

func (g *CFG) newBlock() *Block {
	blk := &Block{}
	g.blocks = append(g.blocks, blk)
	return blk
}

// builder tracks the innermost break/continue targets while walking.
type builder struct {
	g         *CFG
	breakDst  []*Block // stack: where `break` jumps (loops and switches)
	continDst []*Block // stack: where `continue` jumps (loops only)
}

// stmts appends the list to cur, splitting blocks at control flow, and
// returns the block that control falls out of (nil if the list always
// diverges).
func (b *builder) stmts(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a terminator; ignore.
			return nil
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		cur.Succs = append(cur.Succs, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		if s.Label != nil || s.Tok == token.GOTO {
			b.g.Unsupported = true
			return nil
		}
		cur.Nodes = append(cur.Nodes, s)
		switch s.Tok {
		case token.BREAK:
			if n := len(b.breakDst); n > 0 {
				cur.Succs = append(cur.Succs, b.breakDst[n-1])
			}
		case token.CONTINUE:
			if n := len(b.continDst); n > 0 {
				cur.Succs = append(cur.Succs, b.continDst[n-1])
			}
		case token.FALLTHROUGH:
			// Handled by the switch construction (next clause edge).
			return cur
		}
		return nil

	case *ast.BlockStmt:
		return b.stmts(cur, s.List)

	case *ast.IfStmt:
		// Init and Cond evaluate in the current block.
		cur.Nodes = append(cur.Nodes, s)
		after := b.g.newBlock()
		then := b.g.newBlock()
		cur.Succs = append(cur.Succs, then)
		b.g.conds[edge{cur, then}] = EdgeCond{Cond: s.Cond}
		if out := b.stmts(then, s.Body.List); out != nil {
			out.Succs = append(out.Succs, after)
		}
		if s.Else != nil {
			els := b.g.newBlock()
			cur.Succs = append(cur.Succs, els)
			b.g.conds[edge{cur, els}] = EdgeCond{Cond: s.Cond, Negated: true}
			if out := b.stmt(els, s.Else); out != nil {
				out.Succs = append(out.Succs, after)
			}
		} else {
			cur.Succs = append(cur.Succs, after)
			b.g.conds[edge{cur, after}] = EdgeCond{Cond: s.Cond, Negated: true}
		}
		return after

	case *ast.ForStmt:
		cur.Nodes = append(cur.Nodes, s) // init+cond evaluation site
		head := b.g.newBlock()
		body := b.g.newBlock()
		after := b.g.newBlock()
		cur.Succs = append(cur.Succs, head)
		head.Succs = append(head.Succs, body)
		if s.Cond != nil {
			head.Succs = append(head.Succs, after) // condition false
		}
		b.pushLoop(after, head)
		out := b.stmts(body, s.Body.List)
		b.popLoop()
		if out != nil {
			out.Succs = append(out.Succs, head) // back edge
		}
		return after

	case *ast.RangeStmt:
		cur.Nodes = append(cur.Nodes, s)
		head := b.g.newBlock()
		body := b.g.newBlock()
		after := b.g.newBlock()
		cur.Succs = append(cur.Succs, head)
		head.Succs = append(head.Succs, body, after)
		b.pushLoop(after, head)
		out := b.stmts(body, s.Body.List)
		b.popLoop()
		if out != nil {
			out.Succs = append(out.Succs, head)
		}
		return after

	case *ast.SwitchStmt:
		return b.switchStmt(cur, s, s.Body, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		return b.switchStmt(cur, s, s.Body, hasDefaultClause(s.Body))

	case *ast.SelectStmt:
		cur.Nodes = append(cur.Nodes, s)
		after := b.g.newBlock()
		b.pushSwitch(after)
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			body := b.g.newBlock()
			cur.Succs = append(cur.Succs, body)
			if out := b.stmts(body, cc.Body); out != nil {
				out.Succs = append(out.Succs, after)
			}
		}
		b.popSwitch()
		if len(s.Body.List) == 0 {
			return nil // empty select blocks forever
		}
		return after

	case *ast.LabeledStmt:
		b.g.Unsupported = true
		return nil

	default:
		// Declarations, assignments, expression statements, defer, go,
		// send, inc/dec: straight-line nodes.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// switchStmt builds edges for expression and type switches. fallthrough
// is modeled by an edge from a clause's fall-out to the next clause.
func (b *builder) switchStmt(cur *Block, s ast.Stmt, body *ast.BlockStmt, hasDefault bool) *Block {
	cur.Nodes = append(cur.Nodes, s)
	after := b.g.newBlock()
	b.pushSwitch(after)
	clauseBlocks := make([]*Block, len(body.List))
	for i := range body.List {
		clauseBlocks[i] = b.g.newBlock()
		cur.Succs = append(cur.Succs, clauseBlocks[i])
	}
	for i, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		out := b.stmts(clauseBlocks[i], cc.Body)
		if out != nil {
			if fallsThrough(cc.Body) && i+1 < len(clauseBlocks) {
				out.Succs = append(out.Succs, clauseBlocks[i+1])
			} else {
				out.Succs = append(out.Succs, after)
			}
		}
	}
	b.popSwitch()
	if !hasDefault {
		cur.Succs = append(cur.Succs, after) // no clause matched
	}
	return after
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) pushLoop(brk, cont *Block) {
	b.breakDst = append(b.breakDst, brk)
	b.continDst = append(b.continDst, cont)
}

func (b *builder) popLoop() {
	b.breakDst = b.breakDst[:len(b.breakDst)-1]
	b.continDst = b.continDst[:len(b.continDst)-1]
}

func (b *builder) pushSwitch(brk *Block) {
	b.breakDst = append(b.breakDst, brk)
}

func (b *builder) popSwitch() {
	b.breakDst = b.breakDst[:len(b.breakDst)-1]
}

// ReachesExitWithout performs the suite's core flow query: starting
// immediately after node `from` (which must appear in the graph), can
// control reach the exit along a path on which `release` never returns
// true for any intervening node? If so it returns the first offending
// exit-causing statement (a return, or nil for fall-off-the-end /
// loop-reentry leaks), with found=true.
//
// The `kill` callback, checked before release, lets callers stop a path
// for other reasons (e.g. the resource escaping); killed paths are not
// leaks. The optional `skipEdge` callback receives the condition label
// of if-branch edges and may prune branches that cannot hold the
// resource (e.g. the failure branch of the acquisition's error check).
func (g *CFG) ReachesExitWithout(from ast.Stmt, release, kill func(ast.Stmt) bool, skipEdge func(EdgeCond) bool) (leakAt ast.Stmt, found bool) {
	var startBlock *Block
	startIdx := -1
	for _, blk := range g.blocks {
		for i, n := range blk.Nodes {
			if n == from {
				startBlock, startIdx = blk, i
				break
			}
		}
		if startBlock != nil {
			break
		}
	}
	if startBlock == nil {
		return nil, false
	}

	visited := make(map[*Block]bool)
	var walk func(blk *Block, idx int) (ast.Stmt, bool)
	walk = func(blk *Block, idx int) (ast.Stmt, bool) {
		for i := idx; i < len(blk.Nodes); i++ {
			n := blk.Nodes[i]
			if n == from {
				// The walk starts after `from`, so encountering it again
				// means a back edge led here: the resource is still live
				// at its own re-acquisition and the old one leaks.
				return n, true
			}
			if kill != nil && kill(n) {
				return nil, false
			}
			if release(n) {
				return nil, false
			}
			if ret, ok := n.(*ast.ReturnStmt); ok {
				return ret, true
			}
		}
		for _, succ := range blk.Succs {
			if skipEdge != nil {
				if ec, ok := g.conds[edge{blk, succ}]; ok && skipEdge(ec) {
					continue
				}
			}
			if succ == g.Exit {
				// Fall-off-the-end (or implicit return) while live.
				var at ast.Stmt
				if len(blk.Nodes) > 0 {
					at = blk.Nodes[len(blk.Nodes)-1]
				}
				return at, true
			}
			if visited[succ] {
				continue
			}
			visited[succ] = true
			if at, leak := walk(succ, 0); leak {
				return at, true
			}
		}
		return nil, false
	}
	return walk(startBlock, startIdx+1)
}

// VisitFrom walks the graph starting immediately after `from` (or from
// the entry block when from is nil), invoking visit on every node
// reachable before a node for which stop returns true. stop is
// evaluated on a node before visit, and a stopping node is neither
// visited nor walked past. Each node is visited at most once.
func (g *CFG) VisitFrom(from ast.Stmt, stop func(ast.Stmt) bool, visit func(ast.Stmt)) {
	startBlock := g.Entry
	startIdx := -1
	if from != nil {
		startBlock = nil
		for _, blk := range g.blocks {
			for i, n := range blk.Nodes {
				if n == from {
					startBlock, startIdx = blk, i
					break
				}
			}
			if startBlock != nil {
				break
			}
		}
		if startBlock == nil {
			return
		}
	}
	visited := make(map[*Block]bool)
	var walk func(blk *Block, idx int)
	walk = func(blk *Block, idx int) {
		for i := idx; i < len(blk.Nodes); i++ {
			n := blk.Nodes[i]
			if stop != nil && stop(n) {
				return
			}
			visit(n)
		}
		for _, succ := range blk.Succs {
			if succ == g.Exit || visited[succ] {
				continue
			}
			visited[succ] = true
			walk(succ, 0)
		}
	}
	walk(startBlock, startIdx+1)
}

// Headline returns the parts of a statement that execute at the
// statement's own position in the CFG. Compound statements (if, for,
// switch, …) appear as single nodes whose bodies live in other blocks,
// so flow callbacks must inspect only these headline expressions, never
// the full subtree.
func Headline(s ast.Stmt) []ast.Node {
	var out []ast.Node
	add := func(ns ...ast.Node) {
		for _, n := range ns {
			if n != nil {
				out = append(out, n)
			}
		}
	}
	switch s := s.(type) {
	case *ast.IfStmt:
		add(s.Init, s.Cond)
	case *ast.ForStmt:
		add(s.Init, s.Cond, s.Post)
	case *ast.RangeStmt:
		add(s.Key, s.Value, s.X)
	case *ast.SwitchStmt:
		add(s.Init, s.Tag)
	case *ast.TypeSwitchStmt:
		add(s.Init, s.Assign)
	case *ast.SelectStmt:
		// Communication clauses execute in their own blocks.
	case *ast.LabeledStmt:
		// Unsupported by the builder anyway.
	default:
		add(s)
	}
	return out
}

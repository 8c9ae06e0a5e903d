// Package pcg implements the Predicate Connection Graph machinery of the
// paper's Workspace D/KB Manager (§2.2–2.3, §3.2.2): reachability,
// cliques (strongly connected components of mutually recursive
// predicates, found with Tarjan's algorithm), the evaluation graph, and
// the evaluation order list that drives D/KB query processing.
//
// A graph is the symbol table of one compile: it numbers the
// predicates of its rule set densely, in name order, and every
// structure over them — adjacency, reachability, Tarjan's state, the
// closure — is a slice indexed by that number, so an analysis allocates
// per rule set, not per predicate.
package pcg

import (
	"fmt"
	"slices"

	"dkbms/internal/dlog"
)

// Graph is a predicate connection graph over a rule set. Edges run from
// a rule's head predicate to each predicate in its body ("depends on");
// the paper draws them in the opposite direction, which only flips the
// wording of reachability.
//
// Every predicate the rules mention has an id, from 0 up, in ascending
// name order; the sets and lists the graph returns are
// indexed by, or hold, ids.
type Graph struct {
	// rules is the rule set as given; the graph does not copy it.
	rules []dlog.Clause
	// names[id] is the predicate with that id: the names are sorted,
	// and id found by binary search.
	names []string
	// The rules of predicate id are rules[byHead[ruleOff[id]:ruleOff[id+1]]],
	// in the order given.
	ruleOff, byHead []int32
	// The predicates in the bodies of id's rules, ascending and
	// distinct, are adj[adjOff[id]:adjOff[id+1]].
	adjOff, adj []int32
	// The ids of rule i's body atoms, in body order, are
	// body[bodyOff[i]:bodyOff[i+1]].
	bodyOff, body []int32
}

// Build constructs the PCG of a rule set. Facts contribute a predicate
// with no outgoing edges. The graph keeps rules: the caller must not
// change the slice while it uses the graph.
func Build(rules []dlog.Clause) *Graph {
	atoms := 0
	for i := range rules {
		atoms += 1 + len(rules[i].Body)
	}
	// The symbol table: every name the rules mention, sorted and made
	// distinct; an id is a position in it.
	g := &Graph{rules: rules, names: make([]string, 0, atoms)}
	for i := range rules {
		g.names = append(g.names, rules[i].Head.Pred)
		for _, a := range rules[i].Body {
			g.names = append(g.names, a.Pred)
		}
	}
	slices.Sort(g.names)
	g.names = slices.Compact(g.names)
	n, r, b := len(g.names), len(rules), atoms-len(rules)

	// One arena for every index: ruleOff and adjOff (n+1 each), byHead
	// (r), bodyOff (r+1), body and adj (b each).
	arena := make([]int32, 2*(n+1)+r+(r+1)+2*b)
	take := func(k int) []int32 {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	g.ruleOff, g.adjOff, g.byHead, g.bodyOff, g.body, g.adj = take(n+1), take(n+1), take(r), take(r+1), take(b), take(b)

	for i := range rules {
		h := g.id(rules[i].Head.Pred)
		g.ruleOff[h+1]++
		g.bodyOff[i+1] = g.bodyOff[i] + int32(len(rules[i].Body))
		for j, a := range rules[i].Body {
			g.body[int(g.bodyOff[i])+j] = g.id(a.Pred)
		}
	}
	for id := 0; id < n; id++ {
		g.ruleOff[id+1] += g.ruleOff[id]
	}
	// Place each rule after its head's earlier ones; adjOff serves as
	// the cursor, then is rebuilt below.
	for i := range rules {
		h := g.id(rules[i].Head.Pred)
		g.byHead[g.ruleOff[h]+g.adjOff[h]] = int32(i)
		g.adjOff[h]++
	}
	// Adjacency: each head's body ids, sorted and made distinct in
	// place; a head's list never outgrows the space its rules' bodies
	// take, so the lists pack from the front.
	end := 0
	for id := 0; id < n; id++ {
		start := end
		for _, ri := range g.byHead[g.ruleOff[id]:g.ruleOff[id+1]] {
			end += copy(g.adj[end:], g.body[g.bodyOff[ri]:g.bodyOff[ri+1]])
		}
		seg := g.adj[start:end]
		slices.Sort(seg)
		end = start + len(slices.Compact(seg))
		g.adjOff[id], g.adjOff[id+1] = int32(start), int32(end)
	}
	g.adj = g.adj[:end:end]
	return g
}

// Name returns the predicate with the given id.
func (g *Graph) Name(id int) string { return g.names[id] }

// ID returns pred's id, or -1 when no rule mentions it.
func (g *Graph) ID(pred string) int {
	if id, ok := slices.BinarySearch(g.names, pred); ok {
		return id
	}
	return -1
}

// id is ID for a predicate the rules mention.
func (g *Graph) id(pred string) int32 {
	id, _ := slices.BinarySearch(g.names, pred)
	return int32(id)
}

// IsDerived reports whether the graph has rules defining pred.
func (g *Graph) IsDerived(pred string) bool {
	id := g.ID(pred)
	return id >= 0 && g.derived(int32(id))
}

func (g *Graph) derived(id int32) bool { return g.ruleOff[id+1] > g.ruleOff[id] }

// deps returns the ids in the bodies of id's rules, ascending.
func (g *Graph) deps(id int32) []int32 { return g.adj[g.adjOff[id]:g.adjOff[id+1]] }

// Reachable returns the set of predicates reachable from the seeds by
// following body references, the seeds included, indexed by id. A seed
// no rule mentions reaches nothing.
func (g *Graph) Reachable(seeds ...string) []bool {
	seen := make([]bool, len(g.names))
	var stackBuf [64]int32
	stack := stackBuf[:0]
	for _, s := range seeds {
		if id := g.ID(s); id >= 0 && !seen[id] {
			seen[id] = true
			stack = append(stack, int32(id))
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range g.deps(p) {
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	return seen
}

// Contains reports whether pred belongs to set, a set of this graph's
// ids (Reachable's).
func (g *Graph) Contains(set []bool, pred string) bool {
	id := g.ID(pred)
	return id >= 0 && set[id]
}

// TransitiveClosure returns, for each derived predicate's id, the ids
// of the predicates reachable from it, ascending (so in name order),
// itself only if it lies on a cycle; a base predicate's list is nil.
// This is the compiled form the Stored D/KB Manager persists in the
// reachablepreds relation. The lists share one backing array.
func (g *Graph) TransitiveClosure() [][]int32 {
	n := len(g.names)
	out := make([][]int32, n)
	seen := make([]bool, n)
	stack := make([]int32, 0, n)
	var flat []int32
	ends := make([]int, n)
	for p := int32(0); int(p) < n; p++ {
		start := len(flat)
		ends[p] = start
		if !g.derived(p) {
			continue
		}
		// Depth-first from p's direct dependencies, so that p itself
		// appears only if it lies on a cycle.
		for _, q := range g.deps(p) {
			seen[q] = true
			flat = append(flat, q)
			stack = append(stack, q)
		}
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, z := range g.deps(q) {
				if !seen[z] {
					seen[z] = true
					flat = append(flat, z)
					stack = append(stack, z)
				}
			}
		}
		for _, q := range flat[start:] {
			seen[q] = false
		}
		slices.Sort(flat[start:])
		ends[p] = len(flat)
	}
	start := 0
	for p := range out {
		if g.derived(int32(p)) {
			out[p] = flat[start:ends[p]:ends[p]]
		}
		start = ends[p]
	}
	return out
}

// Node is one entry in an evaluation order list: either a clique of
// mutually recursive predicates or a single non-recursive derived
// predicate.
type Node struct {
	// Preds lists the predicates evaluated by this node, in name
	// order. One element for a non-recursive predicate node; one or
	// more for a clique.
	Preds []string
	// Recursive reports whether the node is a clique (LFP computation
	// needed). A single predicate with a self-loop is a clique of one.
	Recursive bool
	// ExitRules are the clique's non-recursive defining rules (all
	// rules for a non-recursive node).
	ExitRules []dlog.Clause
	// RecursiveRules are the rules whose body mentions a predicate
	// mutually recursive with the head. Empty for non-recursive nodes.
	RecursiveRules []dlog.Clause
}

// Analysis is the result of analyzing a rule set for a set of root
// predicates (usually the singleton query predicate).
type Analysis struct {
	// Reachable is the set of predicates reachable from the roots
	// (roots included), indexed by the analyzed graph's ids.
	Reachable []bool
	// BasePreds are reachable predicates with no defining rules, in
	// name order.
	BasePreds []string
	// Order is the evaluation order list: dependencies first, so
	// evaluating nodes left to right satisfies every body reference.
	Order []Node
	// Derived counts the reachable derived predicates (the nodes'
	// predicates).
	Derived int
}

// Analyze computes reachability, cliques and the evaluation order for
// the given roots. It returns an error if a root has no defining rules.
//
// The nodes, their predicates and their rules are each sliced from one
// array, capped, so an append to one node's list copies it.
func Analyze(g *Graph, roots ...string) (*Analysis, error) {
	for _, r := range roots {
		if !g.IsDerived(r) {
			return nil, fmt.Errorf("pcg: no rules define root predicate %s", r)
		}
	}
	reach := g.Reachable(roots...)
	a := &Analysis{Reachable: reach}
	bases, rules := 0, 0
	for id, in := range reach {
		switch {
		case !in:
		case g.derived(int32(id)):
			a.Derived++
			rules += int(g.ruleOff[id+1] - g.ruleOff[id])
		default:
			bases++
		}
	}
	names := make([]string, bases+a.Derived)
	a.BasePreds, names = names[:0:bases], names[bases:]
	for id, in := range reach {
		if in && !g.derived(int32(id)) {
			a.BasePreds = append(a.BasePreds, g.names[id])
		}
	}

	// tarjan emits components in reverse topological order of the
	// condensation with edges head->body; a component is emitted only
	// after everything it depends on. That is exactly the evaluation
	// order (dependencies first).
	n := len(g.names)
	arena := make([]int32, 3*n+3*a.Derived)
	comps, ends := tarjan(g, reach, arena)
	// node[id] is the position in Order of derived predicate id's node.
	node := arena[:n]
	a.Order = make([]Node, len(ends))
	start := int32(0)
	for i, end := range ends {
		comp := comps[start:end]
		start = end
		slices.Sort(comp)
		for _, p := range comp {
			node[p] = int32(i)
		}
	}
	clauses := make([]dlog.Clause, rules)
	start = 0
	for i, end := range ends {
		comp := comps[start:end]
		start = end
		nd := &a.Order[i]
		nd.Preds, names = names[:len(comp):len(comp)], names[len(comp):]
		for j, p := range comp {
			nd.Preds[j] = g.names[p]
		}
		// Exit rules first, then recursive ones, each in predicate
		// then rule order.
		k := 0
		for _, rec := range [2]bool{false, true} {
			for _, p := range comp {
				for _, ri := range g.byHead[g.ruleOff[p]:g.ruleOff[p+1]] {
					if g.recursiveIn(ri, node, int32(i)) == rec {
						clauses[k] = g.rules[ri]
						k++
					}
				}
			}
			if !rec {
				nd.ExitRules = clauses[:k:k]
				clauses, k = clauses[k:], 0
			}
		}
		nd.RecursiveRules = clauses[:k:k]
		clauses = clauses[k:]
		nd.Recursive = len(comp) > 1 || k > 0
	}
	return a, nil
}

// recursiveIn reports whether rule ri's body mentions a predicate of
// node i; node[id] is derived predicate id's node.
func (g *Graph) recursiveIn(ri int32, node []int32, i int32) bool {
	for _, b := range g.body[g.bodyOff[ri]:g.bodyOff[ri+1]] {
		if g.derived(b) && node[b] == i {
			return true
		}
	}
	return false
}

// tarjan runs Tarjan's SCC algorithm over the derived predicates in
// scope, roots and successors in ascending id (name) order. Components
// come out in reverse topological order with respect to the body
// edges, i.e. dependencies before dependents: the k-th is
// comps[ends[k-1]:ends[k]]. arena holds 3n + 3d int32s for n
// predicates, d of them derived and in scope; comps and ends are sliced
// from its tail.
func tarjan(g *Graph, scope []bool, arena []int32) (comps, ends []int32) {
	n := len(g.names)
	d := (len(arena) - 3*n) / 3
	// index[p] is 0 for unvisited, else p's visiting number; low[p] the
	// least visiting number p reaches; onStack[p] is 1 while p is on
	// the stack.
	index, low, onStack := arena[:n], arena[n:2*n], arena[2*n:3*n]
	stack := arena[3*n : 3*n : 3*n+d]
	comps = arena[3*n+d : 3*n+d : 3*n+2*d]
	ends = arena[3*n+2*d : 3*n+2*d : 3*n+3*d]
	type frame struct{ pred, next int32 }
	var callBuf [32]frame
	call := callBuf[:0]
	counter := int32(0)
	inScope := func(q int32) bool { return scope[q] && g.derived(q) }

	// Iterative Tarjan to survive deep rule chains (the compilation
	// benchmarks build chains hundreds of rules long).
	push := func(p int32) {
		counter++
		index[p], low[p], onStack[p] = counter, counter, 1
		stack = append(stack, p)
		call = append(call, frame{pred: p})
	}
	for root := int32(0); int(root) < n; root++ {
		if !inScope(root) || index[root] != 0 {
			continue
		}
		push(root)
		for len(call) > 0 {
			f := &call[len(call)-1]
			p := f.pred
			advanced := false
			succs := g.deps(p)
			for int(f.next) < len(succs) {
				q := succs[f.next]
				f.next++
				if !inScope(q) {
					continue
				}
				if index[q] == 0 {
					push(q)
					advanced = true
					break
				}
				if onStack[q] == 1 && index[q] < low[p] {
					low[p] = index[q]
				}
			}
			if advanced {
				continue
			}
			// Finished p.
			if low[p] == index[p] {
				for {
					q := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[q] = 0
					comps = append(comps, q)
					if q == p {
						break
					}
				}
				ends = append(ends, int32(len(comps)))
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				if parent := call[len(call)-1].pred; low[p] < low[parent] {
					low[parent] = low[p]
				}
			}
		}
	}
	return comps, ends
}

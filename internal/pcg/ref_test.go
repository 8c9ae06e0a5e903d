package pcg

// The map-based predicate connection graph the package had before it
// numbered predicates: the reference model FuzzPCG and the tests hold
// Build, Reachable, TransitiveClosure and Analyze to.

import (
	"fmt"
	"sort"

	"dkbms/internal/dlog"
)

// refGraph is a predicate connection graph over a rule set. Edges run from
// a rule's head predicate to each predicate in its body ("depends on");
// the paper draws them in the opposite direction, which only flips the
// wording of reachability.
type refGraph struct {
	// Rules indexes the defining clauses of each derived predicate.
	Rules map[string][]dlog.Clause
	// DependsOn[p] is the set of predicates in the bodies of p's rules.
	DependsOn map[string]map[string]bool
}

// refBuild constructs the PCG of a rule set. Facts contribute a predicate
// with no outgoing edges.
func refBuild(rules []dlog.Clause) *refGraph {
	g := &refGraph{
		Rules:     make(map[string][]dlog.Clause),
		DependsOn: make(map[string]map[string]bool),
	}
	for _, c := range rules {
		g.Add(c)
	}
	return g
}

// Add inserts one clause into the graph.
func (g *refGraph) Add(c dlog.Clause) {
	h := c.Head.Pred
	g.Rules[h] = append(g.Rules[h], c)
	if g.DependsOn[h] == nil {
		g.DependsOn[h] = make(map[string]bool)
	}
	for _, a := range c.Body {
		g.DependsOn[h][a.Pred] = true
	}
}

// IsDerived reports whether the graph has rules defining pred.
func (g *refGraph) IsDerived(pred string) bool { return len(g.Rules[pred]) > 0 }

// Reachable returns every predicate reachable from the seeds by
// following body references, including the seeds themselves.
func (g *refGraph) Reachable(seeds ...string) map[string]bool {
	seen := make(map[string]bool)
	var stack []string
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for q := range g.DependsOn[p] {
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	return seen
}

// TransitiveClosure returns, for each derived predicate, the set of
// predicates reachable from it (excluding itself unless it is reachable
// via a cycle). This is the compiled form the Stored D/KB Manager
// persists in the reachablepreds relation.
func (g *refGraph) TransitiveClosure() map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(g.Rules))
	for p := range g.Rules {
		r := make(map[string]bool)
		// BFS from p's direct dependencies so p itself appears only if
		// it lies on a cycle.
		var stack []string
		for q := range g.DependsOn[p] {
			if !r[q] {
				r[q] = true
				stack = append(stack, q)
			}
		}
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for z := range g.DependsOn[q] {
				if !r[z] {
					r[z] = true
					stack = append(stack, z)
				}
			}
		}
		out[p] = r
	}
	return out
}

// refNode is one entry in an evaluation order list: either a clique of
// mutually recursive predicates or a single non-recursive derived
// predicate.
type refNode struct {
	// Preds lists the predicates evaluated by this node. One element
	// for a non-recursive predicate node; one or more for a clique.
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

// refAnalysis is the result of analyzing a rule set for a set of root
// predicates (usually the singleton query predicate).
type refAnalysis struct {
	// Reachable is every predicate reachable from the roots (roots
	// included).
	Reachable map[string]bool
	// BasePreds are reachable predicates with no defining rules.
	BasePreds []string
	// Order is the evaluation order list: dependencies first, so
	// evaluating nodes left to right satisfies every body reference.
	Order []*refNode
}

// refAnalyze computes reachability, cliques and the evaluation order for
// the given roots. It returns an error if a root has no defining rules.
func refAnalyze(g *refGraph, roots ...string) (*refAnalysis, error) {
	for _, r := range roots {
		if !g.IsDerived(r) {
			return nil, fmt.Errorf("pcg: no rules define root predicate %s", r)
		}
	}
	reach := g.Reachable(roots...)

	a := &refAnalysis{Reachable: reach}
	for p := range reach {
		if !g.IsDerived(p) {
			a.BasePreds = append(a.BasePreds, p)
		}
	}
	sort.Strings(a.BasePreds)

	sccs := refTarjan(g, reach)
	// tarjan emits components in reverse topological order of the
	// condensation with edges head->body; a component is emitted only
	// after everything it depends on. That is exactly the evaluation
	// order (dependencies first).
	for _, comp := range sccs {
		sort.Strings(comp)
		inComp := make(map[string]bool, len(comp))
		for _, p := range comp {
			inComp[p] = true
		}
		node := &refNode{Preds: comp}
		for _, p := range comp {
			for _, c := range g.Rules[p] {
				rec := false
				for _, b := range c.Body {
					if inComp[b.Pred] {
						rec = true
						break
					}
				}
				if rec {
					node.RecursiveRules = append(node.RecursiveRules, c)
				} else {
					node.ExitRules = append(node.ExitRules, c)
				}
			}
		}
		node.Recursive = len(comp) > 1 || len(node.RecursiveRules) > 0
		a.Order = append(a.Order, node)
	}
	return a, nil
}

// refTarjan runs Tarjan's SCC algorithm over the derived predicates in
// scope. Components come out in reverse topological order with respect
// to DependsOn edges, i.e. dependencies before dependents.
func refTarjan(g *refGraph, scope map[string]bool) [][]string {
	type vstate struct {
		index, low int
		onStack    bool
	}
	states := make(map[string]*vstate)
	var stack []string
	var comps [][]string
	counter := 0

	// Iterative Tarjan to survive deep rule chains (the compilation
	// benchmarks build chains hundreds of rules long).
	type frame struct {
		pred  string
		succs []string
		next  int
	}
	succsOf := func(p string) []string {
		var out []string
		for q := range g.DependsOn[p] {
			if scope[q] && g.IsDerived(q) {
				out = append(out, q)
			}
		}
		sort.Strings(out) // determinism
		return out
	}

	var roots []string
	for p := range scope {
		if g.IsDerived(p) {
			roots = append(roots, p)
		}
	}
	sort.Strings(roots)

	for _, root := range roots {
		if states[root] != nil {
			continue
		}
		var callStack []frame
		push := func(p string) {
			states[p] = &vstate{index: counter, low: counter, onStack: true}
			counter++
			stack = append(stack, p)
			callStack = append(callStack, frame{pred: p, succs: succsOf(p)})
		}
		push(root)
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			st := states[f.pred]
			advanced := false
			for f.next < len(f.succs) {
				q := f.succs[f.next]
				f.next++
				qs := states[q]
				if qs == nil {
					push(q)
					advanced = true
					break
				}
				if qs.onStack && qs.index < st.low {
					st.low = qs.index
				}
			}
			if advanced {
				continue
			}
			// Finished f.pred.
			if st.low == st.index {
				var comp []string
				for {
					p := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					states[p].onStack = false
					comp = append(comp, p)
					if p == f.pred {
						break
					}
				}
				comps = append(comps, comp)
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := states[callStack[len(callStack)-1].pred]
				if st.low < parent.low {
					parent.low = st.low
				}
			}
		}
	}
	return comps
}

package main

import (
	"sort"

	"dkbms/internal/rel"
)

// The oracle computes every expected answer from the generated inputs
// with plain maps and breadth-first search. It shares no code with the
// program's evaluators (rtlib, magic, matview) nor with the repo's
// reference interpreter, so a rewriting that changes an answer cannot
// change the expectation with it.

// answer is what a reply is reduced to for comparison: its row count
// and an order-independent checksum of its rows.
type answer struct {
	rows int
	sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0x1f) * fnvPrime // value separator
}

// add folds one expected row into the answer.
func (a *answer) add(vals ...string) {
	h := uint64(fnvOffset)
	for _, v := range vals {
		h = hashStr(h, v)
	}
	a.rows++
	a.sum += h
}

// answerOf reduces a reply's rows the same way.
func answerOf(rows []rel.Tuple) answer {
	var a answer
	for _, tu := range rows {
		h := uint64(fnvOffset)
		for _, v := range tu {
			if v.Kind == rel.TypeString {
				h = hashStr(h, v.Str)
			} else {
				h = hashStr(h, v.String())
			}
		}
		a.rows++
		a.sum += h
	}
	return a
}

// graph is a directed graph as adjacency sets.
type graph map[string]map[string]bool

func newGraph(edges []edge) graph {
	g := graph{}
	for _, e := range edges {
		g.add(e)
	}
	return g
}

func (g graph) add(e edge) {
	if g[e.from] == nil {
		g[e.from] = map[string]bool{}
	}
	g[e.from][e.to] = true
}

// reach returns the nodes reachable from x by one or more edges.
func (g graph) reach(x string) []string {
	seen := map[string]bool{}
	queue := []string{x}
	var out []string
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for m := range g[n] {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
				queue = append(queue, m)
			}
		}
	}
	return out
}

// closureFrom is the expected answer to "?- p(x, Y)." where p is the
// transitive closure of the graph's relation.
func (g graph) closureFrom(x string) answer {
	var a answer
	for _, y := range g.reach(x) {
		a.add(y)
	}
	return a
}

// closure is the expected answer to "?- p(X, Y).".
func (g graph) closure() answer {
	var a answer
	for x := range g {
		for _, y := range g.reach(x) {
			a.add(x, y)
		}
	}
	return a
}

// edges lists the graph's edges in a fixed order.
func (g graph) edges() []edge {
	var out []edge
	for x, ys := range g {
		for y := range ys {
			out = append(out, edge{x, y})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// sgFrom is the expected answer to "?- sg(<node i>, Y)." over a
// heap-numbered full binary tree: two nodes are of the same generation
// when they sit on the same level below the root (a node is of its own
// generation, its parent being a common ancestor at distance one).
func sgFrom(prefix string, i int) answer {
	var a answer
	level := 0
	for 1<<(level+1) <= i {
		level++
	}
	if level == 0 {
		return a
	}
	for j := 1 << level; j < 1<<(level+1); j++ {
		a.add(treeNode(prefix, j))
	}
	return a
}

// ruleBase is the oracle's view of km_rules: which predicates each
// derived predicate's rules read, and the one fact of each base
// relation. A query's answer is the facts of every base relation its
// predicate reaches.
type ruleBase struct {
	bodies map[string][]string // derived predicate -> body predicates of its rules
	facts  map[string]edge     // base predicate -> its fact
}

func (rb *ruleBase) addRule(head, body string) { rb.bodies[head] = append(rb.bodies[head], body) }

// answerTo is the expected answer to "?- pred(X, Y).".
func (rb *ruleBase) answerTo(pred string) answer {
	seen := map[string]bool{pred: true}
	queue := []string{pred}
	var a answer
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if f, ok := rb.facts[p]; ok {
			a.add(f.from, f.to)
		}
		for _, b := range rb.bodies[p] {
			if !seen[b] {
				seen[b] = true
				queue = append(queue, b)
			}
		}
	}
	return a
}

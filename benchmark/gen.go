package main

import (
	"fmt"
	"math/rand"
	"strings"

	"dkbms/internal/rel"
)

// sizes fixes how much data each workload builds. The benchmark owns
// these numbers and its generators (nothing here depends on
// internal/workload), so a later change cannot alter the load by
// editing a generator: the program under test receives only the rules,
// facts and query texts generated here.
type sizes struct {
	// closure_cold, serve_hot and serve_churn share the static tree.
	treeDepth          int // full binary tree t1..t(2^depth-1) in parent
	dagLayers, dagWide int // layered DAG in edge, out-degree 2
	cycles, cycleLen   int // ring of cycles joined by chords in link
	// point_bigedb
	forestTrees, forestDepth int
	// km_rules
	chains, chainLen int
	updateBatch      int // rules per Update
	// serve_hot
	hotTexts int
	// serve_churn
	regionDepth int // per-connection tree the connection's writes attach to
	// callers is the number of closed-loop connections a server
	// workload drives. It is a constant, not nproc: the load must not
	// change with the host the benchmark happens to run on.
	callers int
}

var fullSizes = sizes{
	treeDepth: 9, dagLayers: 8, dagWide: 24, cycles: 6, cycleLen: 8,
	forestTrees: 24, forestDepth: 12,
	chains: 64, chainLen: 20, updateBatch: 4,
	hotTexts:    64,
	regionDepth: 6,
	callers:     2,
}

// tinySizes keeps the name-contract test inside a few seconds.
var tinySizes = sizes{
	treeDepth: 5, dagLayers: 3, dagWide: 4, cycles: 2, cycleLen: 3,
	forestTrees: 2, forestDepth: 6,
	chains: 4, chainLen: 5, updateBatch: 2,
	hotTexts:    8,
	regionDepth: 4,
	callers:     1,
}

// closureRules are the recursive programs the closure workloads query:
// linear ancestor over the tree, non-linear same-generation over the
// tree, linear reach over the DAG and over the cyclic graph.
const closureRules = `
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
sg(X, Y) :- parent(P, X), parent(P, Y).
sg(X, Y) :- parent(XP, X), sg(XP, YP), parent(YP, Y).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
conn(X, Y) :- link(X, Y).
conn(X, Y) :- link(X, Z), conn(Z, Y).
`

// edge is one binary fact.
type edge struct{ from, to string }

func tuples(edges []edge) []rel.Tuple {
	out := make([]rel.Tuple, len(edges))
	for i, e := range edges {
		out[i] = rel.Tuple{rel.NewString(e.from), rel.NewString(e.to)}
	}
	return out
}

// factBytes is the payload size of the facts as a user wrote them: the
// constants' text, no encoding overhead. space_amp divides file size by
// it.
func factBytes(edges []edge) int64 {
	var n int64
	for _, e := range edges {
		n += int64(len(e.from) + len(e.to))
	}
	return n
}

// treeEdges returns the full binary tree of the given depth, nodes
// numbered heap-style from 1 and named prefix+number.
func treeEdges(prefix string, depth int) []edge {
	n := (1 << depth) - 1
	out := make([]edge, 0, n-1)
	for i := 2; i <= n; i++ {
		out = append(out, edge{treeNode(prefix, i/2), treeNode(prefix, i)})
	}
	return out
}

func treeNode(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }

// nodeAtLevel draws a node of the given level (root = level 0) of a
// heap-numbered binary tree. Every node of one level has the same
// subtree, so the seed changes which node is asked about, not how much
// work the question is.
func nodeAtLevel(rng *rand.Rand, level int) int {
	return (1 << level) + rng.Intn(1<<level)
}

// dagEdges returns a layered DAG: node i of layer l points at nodes i
// and i+1+l%3 (mod wide) of layer l+1. Every node has out-degree 2 and
// every node of a layer reaches equally many others, so which source a
// seed asks about does not change the work.
func dagEdges(layers, wide int) []edge {
	var out []edge
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < wide; i++ {
			out = append(out,
				edge{dagNode(l, i), dagNode(l+1, i)},
				edge{dagNode(l, i), dagNode(l+1, (i+1+l%3)%wide)})
		}
	}
	return out
}

func dagNode(layer, i int) string { return fmt.Sprintf("d%d_%d", layer, i) }

// cyclicEdges returns a ring of directed cycles: node 0 of each cycle
// has a chord to node 0 of the next, so the whole graph is one strongly
// connected component and every cycle looks the same from its node 1,
// the start the workload asks from (the longest way round).
func cyclicEdges(cycles, length int) []edge {
	var out []edge
	for c := 0; c < cycles; c++ {
		for i := 0; i < length; i++ {
			out = append(out, edge{cycNode(c, i), cycNode(c, (i+1)%length)})
		}
		out = append(out, edge{cycNode(c, 0), cycNode((c+1)%cycles, 0)})
	}
	return out
}

func cycNode(c, i int) string { return fmt.Sprintf("c%d_%d", c, i) }

// forestPrefix names the nodes of one tree of the point_bigedb forest.
// The names are as long as real keys are, which is also what makes
// ~100k edges outgrow the buffer pool.
func forestPrefix(k int) string { return fmt.Sprintf("genealogy_family%02d_person_", k) }

// chainPred names derived predicate j of rule chain k:
//
//	q<k>_0(X,Y) :- q<k>_1(X,Y).  ...  q<k>_<L-1>(X,Y) :- bb<k>(X,Y).
func chainPred(k, j int) string { return fmt.Sprintf("q%d_%d", k, j) }

func chainBase(k int) string { return fmt.Sprintf("bb%d", k) }

func chainRule(head, body string) string { return fmt.Sprintf("%s(X, Y) :- %s(X, Y).", head, body) }

// chainRules returns the stored rule base of km_rules as source text.
func chainRules(chains, length int) string {
	var b strings.Builder
	for k := 0; k < chains; k++ {
		for j := 0; j < length; j++ {
			body := chainBase(k)
			if j+1 < length {
				body = chainPred(k, j+1)
			}
			b.WriteString(chainRule(chainPred(k, j), body))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// factsSrc renders edges as a Horn-clause program of facts for pred.
func factsSrc(pred string, edges []edge) string {
	var b strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&b, "%s(%s, %s).\n", pred, e.from, e.to)
	}
	return b.String()
}

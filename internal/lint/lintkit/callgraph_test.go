package lintkit

import (
	"go/token"
	"path/filepath"
	"testing"
)

// TestCallGraph pins the shape of the CHA call graph over the cg
// fixture: exact node set, exact edge multiset and dynamic-site count.
func TestCallGraph(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadFixtureTree(fset, filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	g := BuildCallGraph(fset, pkgs)

	wantNodes := map[string]bool{
		"A.Run": true, "B.Run": true, "helper": true,
		"Static": true, "Dispatch": true, "Dynamic": true, "WithClosure": true,
	}
	gotNodes := map[string]bool{}
	for _, n := range g.Funcs() {
		gotNodes[nodeLabel(n)] = true
	}
	if len(gotNodes) != len(wantNodes) {
		t.Errorf("nodes: got %v, want %v", gotNodes, wantNodes)
	}
	for n := range wantNodes {
		if !gotNodes[n] {
			t.Errorf("missing node %s", n)
		}
	}

	// Edge multiset: caller → callee. The Dispatch call site appears
	// three times: the interface method plus two CHA candidates.
	wantEdges := map[string]int{
		"A.Run → helper":   1,
		"Static → helper":  1,
		"Dispatch → Run":   1, // the abstract interface method
		"Dispatch → A.Run": 1, // CHA candidate
		"Dispatch → B.Run": 1, // CHA candidate
	}
	gotEdges := map[string]int{}
	total := 0
	for _, n := range g.Funcs() {
		for _, cs := range n.Calls {
			label := nodeLabel(n) + " → "
			if recv := ReceiverTypeName(cs.Callee); recv != "" && !cs.CHA {
				if iface := interfaceRecv(cs.Callee); iface != nil {
					label += cs.Callee.Name()
				} else {
					label += recv + "." + cs.Callee.Name()
				}
			} else if recv != "" {
				label += recv + "." + cs.Callee.Name()
			} else {
				label += cs.Callee.Name()
			}
			gotEdges[label]++
			total++
		}
	}
	if total != g.NumEdges() {
		t.Errorf("NumEdges() = %d, but %d call sites recorded", g.NumEdges(), total)
	}
	for e, n := range wantEdges {
		if gotEdges[e] != n {
			t.Errorf("edge %q: got %d, want %d (all: %v)", e, gotEdges[e], n, gotEdges)
		}
	}
	if len(gotEdges) != len(wantEdges) {
		t.Errorf("edges: got %v, want %v", gotEdges, wantEdges)
	}

	// Dynamic(f) calls f(); WithClosure calls fn(). The helper() call
	// inside the literal must NOT appear anywhere.
	if g.DynamicSites != 2 {
		t.Errorf("DynamicSites = %d, want 2", g.DynamicSites)
	}
}

func nodeLabel(n *FuncNode) string {
	if recv := ReceiverTypeName(n.Fn); recv != "" {
		return recv + "." + n.Fn.Name()
	}
	return n.Fn.Name()
}

package pcg

import (
	"fmt"
	"slices"
	"testing"

	"dkbms/internal/dlog"
)

// fuzzNames are the predicate names a generated rule set draws from:
// their name order is neither their index order nor their length
// order, so a graph that numbered predicates as it met them, or sorted
// them by anything but name, would order roots, successors and clique
// members differently from the reference.
var fuzzNames = func() []string {
	out := make([]string, 40)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = fmt.Sprintf("p%d", i)
		case 1:
			out[i] = fmt.Sprintf("_q%d", 40-i)
		case 2:
			out[i] = fmt.Sprintf("a%d_%d", i%7, i)
		default:
			out[i] = fmt.Sprintf("zZ%d", i*37%41)
		}
	}
	return out
}()

// genRules decodes a rule set from data: the first byte picks how many
// predicates (1 to 40) it draws from, then each group of bytes is a
// rule — a head and a body of 0 to 3 predicates, repeats, self-loops
// and cycles allowed. The last byte picks the roots: up to three
// predicates, one of them possibly undefined.
func genRules(data []byte) (rules []dlog.Clause, roots []string) {
	if len(data) == 0 {
		return nil, nil
	}
	np := 1 + int(data[0])%len(fuzzNames)
	names := fuzzNames[:np]
	atom := func(b byte) dlog.Atom { return dlog.NewAtom(names[int(b)%np], dlog.V("X")) }
	rest := data[1:]
	for len(rest) >= 2 && len(rules) < 120 {
		c := dlog.Clause{Head: atom(rest[0])}
		nb := int(rest[1]) % 4
		rest = rest[2:]
		for ; nb > 0 && len(rest) > 0; nb-- {
			c.Body = append(c.Body, atom(rest[0]))
			rest = rest[1:]
		}
		rules = append(rules, c)
	}
	pick := data[len(data)-1]
	for k := 0; k <= int(pick)%3; k++ {
		roots = append(roots, names[(int(pick)/3+7*k)%np])
	}
	return rules, roots
}

func clauseTexts(cs []dlog.Clause) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// FuzzPCG holds the numbered graph to the map-based reference model on
// generated rule sets of up to 40 predicates, with self-loops, mutual
// recursion and unreachable parts: the same reachable set,
// base predicates, node sequence (each node's predicates, kind and
// exit/recursive rule split, in order) and transitive closure, and the
// same refusal of an undefined root.
func FuzzPCG(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 1, 1, 2, 2, 2, 1, 3, 3, 0, 0})    // a chain to a base predicate
	f.Add([]byte{3, 0, 1, 0, 0, 1, 1, 1, 1, 2, 2, 0, 1})          // a self-loop and its exit
	f.Add([]byte{5, 0, 2, 1, 2, 1, 1, 0, 1, 4, 2, 1, 3, 3, 1, 4}) // mutual recursion, an unreachable predicate
	f.Add([]byte{39, 5, 3, 6, 7, 8, 6, 1, 5, 7, 2, 8, 9, 9, 0, 20, 1, 21, 21, 1, 20, 38, 3, 38, 1, 2, 3})
	f.Add([]byte{10, 1, 0, 2, 0, 3, 3, 1, 2, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, roots := genRules(data)
		if len(rules) == 0 {
			return
		}
		g, ref := Build(rules), refBuild(rules)

		for _, p := range fuzzNames {
			if g.IsDerived(p) != ref.IsDerived(p) {
				t.Fatalf("IsDerived(%s) = %v, reference %v", p, g.IsDerived(p), ref.IsDerived(p))
			}
		}
		got, want := closureNames(g), ref.TransitiveClosure()
		if len(got) != len(want) {
			t.Fatalf("closure over %d predicates, reference %d", len(got), len(want))
		}
		for p, w := range want {
			if !mapsEqual(got[p], w) {
				t.Fatalf("closure of %s = %v, reference %v", p, got[p], w)
			}
		}
		// The reference counts a seed no rule mentions as reached; the
		// graph has no id for it.
		w := ref.Reachable(roots...)
		for p := range w {
			if g.ID(p) < 0 {
				delete(w, p)
			}
		}
		if r := reachNames(g, g.Reachable(roots...)); !mapsEqual(r, w) {
			t.Fatalf("reachable from %v = %v, reference %v", roots, r, w)
		}

		a, err := Analyze(g, roots...)
		ra, rerr := refAnalyze(ref, roots...)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Analyze(%v): %v, reference %v", roots, err, rerr)
		}
		if err != nil {
			return
		}
		if r := reachNames(g, a.Reachable); !mapsEqual(r, ra.Reachable) {
			t.Fatalf("analysis reaches %v, reference %v", r, ra.Reachable)
		}
		if !slices.Equal(a.BasePreds, ra.BasePreds) {
			t.Fatalf("base predicates %v, reference %v", a.BasePreds, ra.BasePreds)
		}
		if len(a.Order) != len(ra.Order) {
			t.Fatalf("%d nodes, reference %d", len(a.Order), len(ra.Order))
		}
		derived := 0
		for i, n := range a.Order {
			rn := ra.Order[i]
			derived += len(n.Preds)
			switch {
			case !slices.Equal(n.Preds, rn.Preds) || n.Recursive != rn.Recursive:
				t.Fatalf("node %d: %v recursive %v, reference %v recursive %v", i, n.Preds, n.Recursive, rn.Preds, rn.Recursive)
			case !slices.Equal(clauseTexts(n.ExitRules), clauseTexts(rn.ExitRules)):
				t.Fatalf("node %d %v: exit rules %v, reference %v", i, n.Preds, clauseTexts(n.ExitRules), clauseTexts(rn.ExitRules))
			case !slices.Equal(clauseTexts(n.RecursiveRules), clauseTexts(rn.RecursiveRules)):
				t.Fatalf("node %d %v: recursive rules %v, reference %v", i, n.Preds, clauseTexts(n.RecursiveRules), clauseTexts(rn.RecursiveRules))
			case cap(n.Preds) != len(n.Preds) || cap(n.ExitRules) != len(n.ExitRules) || cap(n.RecursiveRules) != len(n.RecursiveRules):
				t.Fatalf("node %d: a list is not capped at its length, so an append to it writes the next node's", i)
			}
		}
		if derived != a.Derived {
			t.Fatalf("Derived = %d, the nodes hold %d predicates", a.Derived, derived)
		}
	})
}

func mapsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

package dkbms

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dkbms/internal/dlog"
	"dkbms/internal/exec"
	"dkbms/internal/rel"
)

// storedChains returns a testbed whose stored D/KB holds the given
// number of chains of length rules each, as the km_rules benchmark
// builds them: q<k>_<j>(X, Y) :- q<k>_<j+1>(X, Y), the last rule of
// chain k reading bb<k>, a relation of one fact.
func storedChains(t *testing.T, chains, rules int) *Testbed {
	t.Helper()
	tb := NewMemory()
	t.Cleanup(func() { tb.Close() })
	var src strings.Builder
	for k := 0; k < chains; k++ {
		base := fmt.Sprintf("bb%d", k)
		if err := tb.AssertTuples(base, []rel.Tuple{{rel.NewString(fmt.Sprintf("x%d", k)), rel.NewString(fmt.Sprintf("y%d", k))}}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < rules; j++ {
			body := base
			if j+1 < rules {
				body = fmt.Sprintf("q%d_%d", k, j+1)
			}
			fmt.Fprintf(&src, "q%d_%d(X, Y) :- %s(X, Y).\n", k, j, body)
		}
	}
	tb.MustLoad(src.String())
	if _, err := tb.Update(); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestCompileAllocsPerRule pins what one Knowledge Manager compile
// allocates, in objects, for the head of a stored chain of R rules
// (R_r = R, as km_rules' dearest query): at R = 20, and per rule from
// R = 20 to R = 40. A compile allocates per program — one symbol table
// and a few arrays per phase, one string for every rule's statement
// text, schemas shared by every program; the states its stored-D/KB
// reads stream their records into are recycled — and per rule only what
// extraction costs: the rule's parse (one array of terms, one of body
// atoms) and its share of the buffer its text is read into. Its
// predicate's dictionary read executes the prepared read on its kept
// tree and allocates nothing, and its table is looked up by a name
// built on the stack.
//
// Measured: 95 objects at R = 20 and 3.1 a rule. Compiles took 187 and
// 7.1 while each stored-D/KB read collected a decoded row set and each
// table lookup concatenated its name, and 914 and 40.3 while their
// phases allocated per predicate and per rule: the graph's map of
// maps, Tarjan's states and reachability sets; a map, a formatted
// string per alias, column and condition and a schema per rule or
// predicate; and an append per term and atom parsed.
func TestCompileAllocsPerRule(t *testing.T) {
	const (
		atR20   = 115.0
		perRule = 3.5
	)
	allocs := func(rules int) float64 {
		tb := storedChains(t, 4, rules)
		q, err := dlog.ParseQuery("?- q2_0(X, Y).")
		if err != nil {
			t.Fatal(err)
		}
		compile := func() {
			c, err := tb.Compile(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.Stats.RelevantRules != rules {
				t.Fatalf("R_r = %d, want %d", c.Stats.RelevantRules, rules)
			}
		}
		compile() // prepares the extraction statements
		return testing.AllocsPerRun(20, compile)
	}
	a20, a40 := allocs(20), allocs(40)
	slope := (a40 - a20) / 20
	t.Logf("a compile allocates %.0f objects at R = 20, %.0f at R = 40: %.2f a rule", a20, a40, slope)
	if raceEnabled {
		return
	}
	if a20 > atR20 {
		t.Errorf("a compile at R = 20 allocates %.0f objects, pinned at most %.0f", a20, atR20)
	}
	if slope > perRule {
		t.Errorf("a compile allocates %.2f objects a rule from R = 20 to 40, pinned at most %.2f", slope, perRule)
	}
}

// TestEvalAllocsPerNode pins what an evaluation allocates, in objects,
// per evaluation-order node: the slope of an evaluation of the head of
// a stored chain (one non-recursive node a rule, each a temp table and
// one rule INSERT) from R = 20 to R = 40. A node creates its temp table
// and executes its rule's statement on the kept tree; its name, its
// fixpoint, its relation list and its statement are the run's, not the
// node's. Two rows: Testbed.Evaluate on the root database, and the
// served evaluation, which readAt runs on a view of a pinned snapshot
// recording its reads into a row block. A view resolves a table and
// finds a prepared statement as the root database does, so the served
// slope is the root's, within 0.2 objects a node.
//
// Measured: 3.10 objects a node on both. Evaluation took 7.30 while
// each node concatenated its temp table's name, allocated a Fixpoint
// and a relation list, and each cached Prepare a statement handle; the
// served row took 4.10 while a view built a string for each table name
// it resolved and allocated a handle for each Prepare.
func TestEvalAllocsPerNode(t *testing.T) {
	const (
		perNode  = 5
		viewSlop = 0.2
	)
	allocs := func(rules int, served bool) float64 {
		tb := storedChains(t, 4, rules)
		q, err := dlog.ParseQuery("?- q2_0(X, Y).")
		if err != nil {
			t.Fatal(err)
		}
		c, err := tb.Compile(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		check := func(rows, nodes int) {
			if rows != 1 || nodes < rules {
				t.Fatalf("%d rows over %d nodes, want 1 row over at least %d", rows, nodes, rules)
			}
		}
		eval := func() {
			res, err := tb.Evaluate(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(len(res.Rows), len(res.Eval.Nodes))
		}
		if served {
			ctb := NewConcurrent(tb)
			s, err := ctb.acquire()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Release)
			reads := new(exec.Reads)
			eval = func() {
				res, block, err := tb.evaluate(context.Background(), tb.db.View(s.Tables(), reads), c, &QueryOptions{}, nil, true)
				reads.Reset()
				if err != nil {
					t.Fatal(err)
				}
				check(rel.RowCount(block), len(res.Eval.Nodes))
			}
		}
		eval() // prepares the run's statements
		return testing.AllocsPerRun(20, eval)
	}
	var slopes [2]float64
	for i, row := range []string{"root", "served"} {
		a20, a40 := allocs(20, i == 1), allocs(40, i == 1)
		slopes[i] = (a40 - a20) / 20
		t.Logf("%s: an evaluation allocates %.0f objects at R = 20, %.0f at R = 40: %.2f a node", row, a20, a40, slopes[i])
	}
	if raceEnabled {
		return
	}
	if slopes[0] > perNode {
		t.Errorf("an evaluation allocates %.2f objects a node from R = 20 to 40, pinned at most %d", slopes[0], perNode)
	}
	if d := slopes[1] - slopes[0]; d > viewSlop || d < -viewSlop {
		t.Errorf("a served evaluation allocates %.2f objects a node, the root database's %.2f: pinned within %.1f", slopes[1], slopes[0], viewSlop)
	}
}

// TestDictReadsPinned pins Figs 9 and 10's t_readdict in counts: the
// dictionary SELECTs of one compile are the reachable predicates
// without a table — the P_r derived predicates of the chain from the
// query's predicate down, and the query's own — so they grow with P_r
// and are the same whether P_s = 40 or 1 280 predicates are stored.
// A compile's SELECTs are its extractions, one each for a frontier of
// up to sql.MaxParam predicates, and its dictionary reads.
func TestDictReadsPinned(t *testing.T) {
	const rules = 20
	reads := map[int][]int64{}
	for _, chains := range []int{2, 64} {
		tb := storedChains(t, chains, rules)
		for _, pr := range []int{5, 10, 20} {
			q, err := dlog.ParseQuery(fmt.Sprintf("?- q1_%d(X, Y).", rules-pr))
			if err != nil {
				t.Fatal(err)
			}
			before, st := tb.DB().StatsSnapshot(), tb.Stored().StatsSnapshot()
			c, err := tb.Compile(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.Stats.RelevantRules != pr {
				t.Fatalf("R_r = %d, want %d", c.Stats.RelevantRules, pr)
			}
			n := tb.DB().StatsSnapshot().Selects - before.Selects - (tb.Stored().StatsSnapshot().ExtractCalls - st.ExtractCalls)
			reads[chains] = append(reads[chains], n)
			if want := int64(pr + 1); n != want {
				t.Errorf("P_s = %d, P_r = %d: a compile issued %d dictionary SELECTs, want %d: the chain's predicates and the query's", chains*rules, pr, n, want)
			}
		}
	}
	t.Logf("dictionary SELECTs per compile at P_r = 5, 10, 20: %v at P_s = 40, %v at P_s = 1 280", reads[2], reads[64])
}

package dkbms

import (
	"fmt"
	"strings"
	"testing"

	"dkbms/internal/dlog"
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
// text, schemas shared by every program — and per rule only what
// extraction and the dictionary read cost: the rule's extracted row,
// its parse (one array of terms, one of body atoms), its table name
// and its dictionary read (an execution of the prepared read).
//
// Measured: 187 objects at R = 20 and 7.1 a rule. Compiles took 914 at
// R = 20 and 40.3 a rule while their phases allocated per predicate
// and per rule: the graph's map of maps, Tarjan's states and
// reachability sets; a map, a formatted string per alias, column and
// condition and a schema per rule or predicate; and an append per term
// and atom parsed.
func TestCompileAllocsPerRule(t *testing.T) {
	const (
		atR20   = 187 * 1.1
		perRule = 7.1 * 1.1
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

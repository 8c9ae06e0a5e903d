package stored

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/core"
	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/rel"
)

// frozen is a pinned snapshot's table map, as the snapshot store keeps
// one: every non-temp table at the version current when it was pinned.
type frozen map[string]*catalog.Table

func pin(d *db.DB) frozen {
	f := frozen{}
	for _, name := range d.Catalog().Tables() {
		if t := d.Catalog().Table(name); !t.Temp {
			f[name] = t
		}
	}
	return f
}

// commit runs an Update as a copy-on-write commit does: every stored
// table is frozen first, so the Update writes copies and every pinned
// version stays as it was.
func commit(t *testing.T, d *db.DB, m *Manager, rules ...dlog.Clause) {
	t.Helper()
	d.Catalog().Freeze(1)
	if _, err := m.Update(rules); err != nil {
		t.Error(err)
	}
}

// compileThrough compiles ?- top(a, Y). on a view of m over the snapshot,
// as a served query does, and returns the rules extracted for top
// through the same view and the number of rules the compile found
// relevant.
func compileThrough(m *Manager, snap frozen) (string, int, error) {
	vdb := m.DB().View(snap, nil)
	view := m.WithDB(vdb)
	q, err := dlog.ParseQuery("?- top(a, Y).")
	if err != nil {
		return "", 0, err
	}
	cp := &core.Compiler{WS: core.NewWorkspace(), DB: vdb, Stored: view}
	compiled, err := cp.Compile(q, core.CompileOptions{})
	if err != nil {
		return "", 0, err
	}
	rules, err := view.ExtractRelevant([]string{"top"})
	if err != nil {
		return "", 0, err
	}
	return ruleSet(rules), compiled.Stats.RelevantRules, nil
}

// generation g of the storm's rule base: top over each of l1..lg, each
// li over the base predicate e.
func generation(g int) []dlog.Clause {
	return []dlog.Clause{
		clause(fmt.Sprintf("top(X, Y) :- l%d(X, Y).", g)),
		clause(fmt.Sprintf("l%d(X, Y) :- e(X, Y).", g)),
	}
}

func rulesUpTo(g int) string {
	var all []dlog.Clause
	for i := 1; i <= g; i++ {
		all = append(all, generation(i)...)
	}
	return ruleSet(all)
}

// TestViewReadsItsSnapshot: the manager's statements are prepared once,
// on the live database, yet a view over a snapshot pinned before an
// Update extracts and types the rules of that snapshot, and the same
// compile after the Update extracts the new ones.
func TestViewReadsItsSnapshot(t *testing.T) {
	d, m := open(t, Options{})
	if err := m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")}); err != nil {
		t.Fatal(err)
	}
	commit(t, d, m, generation(1)...)
	before := pin(d)
	commit(t, d, m, generation(2)...)
	after := pin(d)

	for _, tc := range []struct {
		name string
		snap frozen
		gen  int
	}{{"pinned before the update", before, 1}, {"pinned after", after, 2}, {"before, again", before, 1}} {
		rules, relevant, err := compileThrough(m, tc.snap)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := rulesUpTo(tc.gen); rules != want || relevant != 2*tc.gen {
			t.Errorf("%s: extracted\n%s\n(%d relevant to the compile), want\n%s", tc.name, rules, relevant, want)
		}
		types, err := m.WithDB(d.View(tc.snap, nil)).DerivedTypes([]string{"l2"})
		if _, found := types["l2"]; err != nil || found != (tc.gen == 2) {
			t.Errorf("%s: l2's dictionary entry %v, %v", tc.name, types, err)
		}
	}
}

// TestViewsCompileUnderUpdateStorm: 8 goroutines compile through views
// of whatever snapshot is current while a writer commits 30 Updates,
// and every extracted rule set is exactly its snapshot's (run under
// -race: the views share the manager's statements and its extraction
// memo).
func TestViewsCompileUnderUpdateStorm(t *testing.T) {
	d, m := open(t, Options{})
	if err := m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")}); err != nil {
		t.Fatal(err)
	}
	type published struct {
		gen  int
		snap frozen
	}
	const gens = 30
	commit(t, d, m, generation(1)...)
	var current atomic.Pointer[published]
	current.Store(&published{1, pin(d)})
	want := make([]string, gens+1)
	for g := 1; g <= gens; g++ {
		want[g] = rulesUpTo(g)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	var compiles atomic.Int64
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || !done.Load(); first = false {
				p := current.Load()
				rules, relevant, err := compileThrough(m, p.snap)
				if err != nil {
					t.Error(err)
					return
				}
				if rules != want[p.gen] || relevant != 2*p.gen {
					t.Errorf("generation %d: extracted\n%s\n(%d relevant), want\n%s", p.gen, rules, relevant, want[p.gen])
					return
				}
				compiles.Add(1)
			}
		}()
	}
	for g := 2; g <= gens; g++ {
		commit(t, d, m, generation(g)...)
		current.Store(&published{g, pin(d)})
	}
	done.Store(true)
	wg.Wait()
	if rules, _, err := compileThrough(m, pin(d)); err != nil || rules != want[gens] {
		t.Errorf("after the storm: %v\n%s", err, rules)
	}
	t.Logf("%d compiles across %d generations", compiles.Load(), gens)
}

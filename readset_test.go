package dkbms

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dkbms/internal/dlog"
	"dkbms/internal/rel"
	"dkbms/internal/snapshot"
)

// churnDKB is a D/KB shaped like the benchmark's serve_churn: a static
// full binary tree t1..t127 and two regions r0_1..r0_31 and r1_1..r1_31
// in parent, indexed on its first column, under the closure rules.
type churnDKB struct {
	c     *ConcurrentTestbed
	facts map[string][]rel.Tuple
	rules []dlog.Clause
}

const churnRules = `
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
sg(X, Y) :- parent(P, X), parent(P, Y).
sg(X, Y) :- parent(XP, X), sg(XP, YP), parent(YP, Y).
`

func newChurnDKB(t *testing.T) *churnDKB {
	t.Helper()
	d := &churnDKB{facts: map[string][]rel.Tuple{}}
	tree := func(prefix string, depth int) {
		for i := 2; i < 1<<depth; i++ {
			d.facts["parent"] = append(d.facts["parent"], edgeTuple(fmt.Sprintf("%s%d", prefix, i/2), fmt.Sprintf("%s%d", prefix, i)))
		}
	}
	tree("t", 7)
	tree("r0_", 5)
	tree("r1_", 5)
	tb := NewMemory()
	if err := tb.AssertTuples("parent", d.facts["parent"]); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateFactIndex("parent", 0); err != nil {
		t.Fatal(err)
	}
	prog, err := dlog.ParseProgram(churnRules)
	if err != nil {
		t.Fatal(err)
	}
	d.rules = prog.Clauses
	tb.MustLoad(churnRules)
	d.c = NewConcurrent(tb)
	t.Cleanup(func() { d.c.Close() })
	return d
}

func edgeTuple(from, to string) rel.Tuple {
	return rel.Tuple{rel.NewString(from), rel.NewString(to)}
}

// check serves every text and requires its outcome, want[text], and the
// reference answer over d.facts.
func (d *churnDKB) check(t *testing.T, step string, texts []string, want map[string]string) {
	t.Helper()
	// The reference model once, its relations then the facts each text's
	// answer is read from.
	model := map[string][]rel.Tuple{}
	for pred, tuples := range refEval(d.rules, d.facts) {
		for _, tu := range tuples {
			model[pred] = append(model[pred], tu)
		}
	}
	for _, text := range texts {
		q, err := dlog.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.c.Query(text, nil)
		if err != nil {
			t.Fatalf("%s: %s: %v", step, text, err)
		}
		if res.Cache != want[text] {
			t.Errorf("%s: %s served %q, want %q", step, text, res.Cache, want[text])
		}
		if got, ref := rowSet(res.Rows), refAnswer(q, nil, model); strings.Join(got, "|") != strings.Join(ref, "|") {
			t.Errorf("%s: %s answered %v, reference %v", step, text, got, ref)
		}
	}
}

// TestKeyScopedInvalidationPinned pins which memos a commit keeps on a
// serve_churn-shaped D/KB: 8 shared texts over the static tree and 6
// texts of each region's own (the closures of its root's children and
// grandchildren), all bound ancestor queries that read parent only
// through probes of its first-column index, beside an unbound ancestor
// and a bound sg, which scan it. A LOAD of a family of 19 facts under
// one leaf of region 0 writes one key, the leaf: exactly the 2 texts
// whose subtrees hold the leaf probed it and re-evaluate, the other 18
// memos are carried, and both scanning texts re-evaluate. A RETRACT of
// the family splits them the same way.
func TestKeyScopedInvalidationPinned(t *testing.T) {
	d := newChurnDKB(t)
	var keyed []string
	for n := 8; n < 16; n++ {
		keyed = append(keyed, fmt.Sprintf("?- ancestor(t%d, Y).", n))
	}
	for _, r := range []string{"r0_", "r1_"} {
		for n := 2; n < 8; n++ {
			keyed = append(keyed, fmt.Sprintf("?- ancestor(%s%d, Y).", r, n))
		}
	}
	scans := []string{"?- ancestor(X, Y).", "?- sg(t9, Y)."}
	texts := append(append([]string(nil), keyed...), scans...)
	all := func(outcome string) map[string]string {
		m := map[string]string{}
		for _, text := range texts {
			m[text] = outcome
		}
		return m
	}
	d.check(t, "cold", texts, all("miss"))
	d.check(t, "repeat", texts, all("result"))
	st := d.c.PlanStats()
	if st.ReadSetBytes <= 0 {
		t.Fatalf("%d memos stored with read sets of %d bytes", st.Entries, st.ReadSetBytes)
	}

	// Leaf 21 of region 0 hangs under r0_10, r0_5 and r0_2.
	const leaf = "r0_21"
	split := all("result")
	for _, text := range append([]string{"?- ancestor(r0_2, Y).", "?- ancestor(r0_5, Y)."}, scans...) {
		split[text] = "plan"
	}
	var family strings.Builder
	for i := 0; i < 19; i++ {
		fmt.Fprintf(&family, "parent(%s, r0_n%d).\n", leaf, i)
		d.facts["parent"] = append(d.facts["parent"], edgeTuple(leaf, fmt.Sprintf("r0_n%d", i)))
	}
	before := d.c.PlanStats()
	if err := d.c.Load(family.String()); err != nil {
		t.Fatal(err)
	}
	if got := d.c.PlanStats().Carried - before.Carried; got != int64(len(keyed)-2) {
		t.Errorf("the LOAD carried %d memos, want %d", got, len(keyed)-2)
	}
	d.check(t, "load", texts, split)
	d.check(t, "load, repeat", texts, all("result"))

	d.facts["parent"] = slices.DeleteFunc(d.facts["parent"], func(tu rel.Tuple) bool { return tu[0].Str == leaf })
	before = d.c.PlanStats()
	if n, err := d.c.RetractSrc("parent(" + leaf + ", X)"); err != nil || n != 19 {
		t.Fatalf("retract: %d, %v", n, err)
	}
	if got := d.c.PlanStats().Carried - before.Carried; got != int64(len(keyed)-2) {
		t.Errorf("the RETRACT carried %d memos, want %d", got, len(keyed)-2)
	}
	d.check(t, "retract", texts, split)
	d.check(t, "retract, repeat", texts, all("result"))
}

// genChain builds a program of TestRandomChainUpdatesAgainstReference's
// family: p0, the transitive closure of a random graph e0 over six
// constants, and p1, its converse.
func genChain(r *rand.Rand) ([]dlog.Clause, map[string][]rel.Tuple) {
	consts := []string{"a", "b", "c", "d", "g", "h"}
	facts := map[string][]rel.Tuple{}
	seen := map[string]bool{}
	for n := 5 + r.Intn(6); len(facts["e0"]) < n; {
		tu := edgeTuple(consts[r.Intn(len(consts))], consts[r.Intn(len(consts))])
		if !seen[tu.Key()] {
			seen[tu.Key()] = true
			facts["e0"] = append(facts["e0"], tu)
		}
	}
	var rules []dlog.Clause
	for _, src := range []string{"p0(X, Y) :- e0(X, Y).", "p0(X, Y) :- e0(X, Z), p0(Z, Y).", "p1(X, Y) :- p0(Y, X)."} {
		rules = append(rules, dlog.MustParseClause(src))
	}
	return rules, facts
}

// TestServedMemosAgainstReference holds key-scoped invalidation to the
// reference interpreter. Each trial is a program of reference_test.go's
// families — genProgram's in even trials, genChain's in odd ones —
// whose base relations get 12 inert facts each — constants of
// their own, which join nothing, so that the planner probes indexes —
// and one random single-column index each, or none, served through a
// ConcurrentTestbed: a bound and an unbound text per derived predicate,
// each with NoOptimize off and on, then 20–40 random steps. A step
// loads a fact or retracts every fact with a constant in a column, the
// constants inside and outside what the texts probed; reads a random
// text; pins the current snapshot; or reads a random text on a pinned
// snapshot, the oldest, and releases it, as a reader that finishes after later
// commits does, storing its answer if the entry has none newer. After
// every commit every text's served answer must equal the reference
// answer over the facts as they stand, whether its memo was carried or
// dropped; any other read must equal it over the facts of its snapshot.
// Reads also pose each text in a second spelling (one more space), a
// plan-cache key of its own, and a late read poses a bound text so
// whose entry holds no memo — a commit dropped it, or no read stored
// one: its stale answer then stands until the next commit decides on
// it, whose check reads it in that spelling, and half the other texts,
// drawn anew each time. A
// failure names the trial, the step and the steps run before it, all
// trials counted.
func TestServedMemosAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(20261019))
	trials := 24
	if testing.Short() {
		trials = 6
	}
	consts := []string{"a", "b", "c", "d", "g", "h", "k", "m"}
	steps, carried := 0, int64(0)
	for trial := 0; trial < trials; trial++ {
		rules, facts := genProgram(r, 2, 1+r.Intn(3))
		if trial%2 == 1 {
			rules, facts = genChain(r)
		}
		tb := NewMemory()
		var bases []string
		for pred := range facts {
			bases = append(bases, pred)
		}
		sort.Strings(bases)
		for _, pred := range bases {
			for i := 0; i < 12; i++ {
				facts[pred] = append(facts[pred], edgeTuple(fmt.Sprintf("%s_s%d", pred, i), fmt.Sprintf("%s_o%d", pred, i)))
			}
			if err := tb.AssertTuples(pred, facts[pred]); err != nil {
				t.Fatal(err)
			}
			if col := r.Intn(3); col < 2 {
				if err := tb.CreateFactIndex(pred, col); err != nil {
					t.Fatal(err)
				}
			}
		}
		var texts []string
		seen := map[string]bool{}
		for _, c := range rules {
			if err := tb.Workspace().AddClause(c); err != nil {
				t.Fatal(err)
			}
			if p := c.Head.Pred; !seen[p] {
				seen[p] = true
				texts = append(texts, fmt.Sprintf("?- %s(%s, OUT).", p, consts[r.Intn(6)]), fmt.Sprintf("?- %s(O1, O2).", p))
			}
		}
		c := NewConcurrent(tb)
		at := func(step int) string {
			return fmt.Sprintf("trial %d step %d (%d steps run before)\nprogram:\n%s", trial, step, steps, programText(rules))
		}
		// check reads text with NoOptimize off and on, in its second
		// spelling when respelled is set, through read, and compares the
		// answers with the reference over facts.
		check := func(step int, text string, respelled bool, facts map[string][]rel.Tuple, read func(src string, opts *QueryOptions) (*QueryResult, error)) {
			t.Helper()
			q, err := dlog.ParseQuery(text)
			if err != nil {
				t.Fatal(err)
			}
			want := refAnswer(q, rules, facts)
			src := text
			if respelled {
				src = "?-  " + strings.TrimPrefix(text, "?- ")
			}
			for _, noOpt := range []bool{false, true} {
				res, err := read(src, &QueryOptions{NoOptimize: noOpt})
				if err != nil {
					t.Fatalf("%s: %q nooptimize=%v: %v", at(step), src, noOpt, err)
				}
				if got := rowSet(res.Rows); strings.Join(got, "|") != strings.Join(want, "|") {
					t.Fatalf("%s: %q nooptimize=%v served %q at generation %d: %v, reference %v", at(step), src, noOpt, res.Cache, res.Snapshot, got, want)
				}
			}
		}
		// stored are the texts a late read stored the answer of, in their
		// second spelling, since the last commit.
		stored := map[string]bool{}
		serve := func(step int, text string, respelled bool) {
			t.Helper()
			check(step, text, respelled, facts, func(src string, opts *QueryOptions) (*QueryResult, error) { return c.Query(src, opts) })
		}
		// pinned are snapshots a late reader holds, with the facts they
		// publish.
		type pin struct {
			s     *snapshot.Snapshot
			facts map[string][]rel.Tuple
		}
		var pinned []pin
		for _, text := range texts {
			serve(0, text, false)
		}
		n := 20 + r.Intn(21)
		for step := 1; step <= n; step++ {
			pred := bases[r.Intn(len(bases))]
			committed := false
			switch k := r.Intn(20); {
			case k < 5: // load a fact the relation lacks
				tu := edgeTuple(consts[r.Intn(len(consts))], consts[r.Intn(len(consts))])
				for slices.ContainsFunc(facts[pred], func(f rel.Tuple) bool { return f.Key() == tu.Key() }) {
					tu = edgeTuple(consts[r.Intn(len(consts))], consts[r.Intn(len(consts))])
				}
				if err := c.Load(fmt.Sprintf("%s(%s, %s).", pred, tu[0].Str, tu[1].Str)); err != nil {
					t.Fatalf("%s: %v", at(step), err)
				}
				facts[pred] = append(slices.Clip(facts[pred]), tu)
				committed = true
			case k < 8: // retract every fact with one constant in one column
				col, v := r.Intn(2), consts[r.Intn(len(consts))]
				args := []string{"X", "Y"}
				args[col] = v
				n, err := c.RetractSrc(fmt.Sprintf("%s(%s, %s)", pred, args[0], args[1]))
				if err != nil {
					t.Fatalf("%s: %v", at(step), err)
				}
				kept := slices.DeleteFunc(slices.Clone(facts[pred]), func(f rel.Tuple) bool { return f[col].Str == v })
				if n != len(facts[pred])-len(kept) {
					t.Fatalf("%s: retract %s from %s deleted %d facts, the reference %d", at(step), v, pred, n, len(facts[pred])-len(kept))
				}
				facts[pred], committed = kept, n > 0
			case k < 10: // a read between commits
				serve(step, texts[r.Intn(len(texts))], r.Intn(2) == 0)
			case k < 13: // a reader pins the current snapshot
				if len(pinned) < 3 {
					pinned = append(pinned, pin{c.snaps.Acquire(), maps.Clone(facts)})
				}
			default: // a pinned reader finishes late
				var late []string
				for i := 0; i < len(texts); i += 2 { // the bound texts
					src := "?-  " + strings.TrimPrefix(texts[i], "?- ")
					if e := c.plans.entries[newPlanKey(src, &QueryOptions{})]; e == nil || e.result.res == nil {
						late = append(late, texts[i])
					}
				}
				if len(pinned) == 0 || len(late) == 0 {
					break
				}
				p, text := pinned[0], late[r.Intn(len(late))]
				stored[text] = true
				check(step, text, true, p.facts, func(src string, opts *QueryOptions) (*QueryResult, error) {
					m, err := c.readAt(context.Background(), p.s, newPlanKey(src, opts), false, 0)
					if err == nil {
						m.res.Rows, _, err = rel.DecodeRows(m.block)
					}
					return m.res, err
				})
				p.s.Release()
				pinned = pinned[1:]
			}
			if committed {
				for _, text := range texts {
					serve(step, text, false)
					if stored[text] || r.Intn(2) == 0 {
						serve(step, text, true)
					}
				}
				clear(stored)
			}
			steps++
		}
		for _, p := range pinned {
			p.s.Release()
		}
		carried += c.PlanStats().Carried
		c.Close()
	}
	if carried == 0 {
		t.Errorf("%d steps carried no memo: the check never saw a carried answer", steps)
	}
	t.Logf("%d trials, %d steps, %d memos carried", trials, steps, carried)
}

// TestCarriedMemosConcurrent serves four bound closures from four
// goroutines until a writer has loaded and retracted 20 families under
// random leaves of one region, letting them serve a few answers before
// each commit and recording the facts each generation publishes.
// Every answer must equal the reference over the facts of the
// generation it was served at, whether it was evaluated, served from a
// memo or from a memo a commit carried forward.
func TestCarriedMemosConcurrent(t *testing.T) {
	rules, err := dlog.ParseProgram(churnRules)
	if err != nil {
		t.Fatal(err)
	}
	var base []rel.Tuple
	for _, prefix := range []string{"t", "r0_"} {
		for i := 2; i < 1<<4; i++ {
			base = append(base, edgeTuple(fmt.Sprintf("%s%d", prefix, i/2), fmt.Sprintf("%s%d", prefix, i)))
		}
	}
	tb := NewMemory()
	if err := tb.AssertTuples("parent", base); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateFactIndex("parent", 0); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(churnRules)
	c := NewConcurrent(tb)
	defer c.Close()

	var mu sync.Mutex
	published := map[uint64][]rel.Tuple{c.snaps.Current().Gen: base}
	type served struct {
		text string
		gen  uint64
		rows []string
	}
	var got []served
	texts := []string{"?- ancestor(t2, Y).", "?- ancestor(t3, Y).", "?- ancestor(r0_2, Y).", "?- ancestor(r0_3, Y)."}
	var wg sync.WaitGroup
	var reads atomic.Int64
	done := make(chan struct{})
	for _, text := range texts {
		wg.Add(1)
		go func(text string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := c.Query(text, nil)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				got = append(got, served{text, res.Snapshot, rowSet(res.Rows)})
				mu.Unlock()
				reads.Add(1)
			}
		}(text)
	}
	r := rand.New(rand.NewSource(7))
	facts := base
	// settle lets the readers serve a few answers before the next commit.
	settle := func() {
		for n := reads.Load() + int64(len(texts)); reads.Load() < n; {
			runtime.Gosched()
		}
	}
	for i := 0; i < 20; i++ {
		settle()
		leaf := fmt.Sprintf("r0_%d", 8+r.Intn(8))
		src := fmt.Sprintf("parent(%s, f%d). parent(%s, g%d).", leaf, i, leaf, i)
		if err := c.Load(src); err != nil {
			t.Fatal(err)
		}
		facts = append(slices.Clip(facts), edgeTuple(leaf, fmt.Sprintf("f%d", i)), edgeTuple(leaf, fmt.Sprintf("g%d", i)))
		mu.Lock()
		published[c.snaps.Current().Gen] = facts
		mu.Unlock()
		settle()
		if _, err := c.RetractSrc(fmt.Sprintf("parent(%s, g%d)", leaf, i)); err != nil {
			t.Fatal(err)
		}
		facts = slices.DeleteFunc(slices.Clone(facts), func(tu rel.Tuple) bool { return tu[1].Str == fmt.Sprintf("g%d", i) })
		mu.Lock()
		published[c.snaps.Current().Gen] = facts
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	want := map[string][]string{}
	for _, s := range got {
		at := fmt.Sprintf("%s at generation %d", s.text, s.gen)
		if _, ok := want[at]; !ok {
			facts, ok := published[s.gen]
			if !ok {
				t.Fatalf("%s: no generation %d was published", at, s.gen)
			}
			q, err := dlog.ParseQuery(s.text)
			if err != nil {
				t.Fatal(err)
			}
			want[at] = refAnswer(q, rules.Clauses, map[string][]rel.Tuple{"parent": facts})
		}
		if !slices.Equal(s.rows, want[at]) {
			t.Fatalf("%s served %v, reference %v", at, s.rows, want[at])
		}
	}
	if st := c.PlanStats(); st.Carried == 0 {
		t.Errorf("no memo was carried: %+v", st)
	}
}

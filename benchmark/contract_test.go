package main

import (
	"regexp"
	"strings"
	"testing"

	"dkbms/internal/rel"
)

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, ops: 40, trace: trace, sz: tinySizes, outDir: t.TempDir()}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestNameContract holds BENCHMARK.json and the program to each other:
// every workload and metric the file names is emitted, with that unit,
// and nothing else is.
func TestNameContract(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", c.RunSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", c.Paths)
	}
	for _, arg := range c.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}

	used := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not letters, digits, _ . - (at most 64)", kind, n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	endToEnd := map[string]string{}
	for _, g := range c.EndToEnd {
		name("end-to-end metric", g.Name)
		endToEnd[g.Name] = g.Unit
		if !unitRE.MatchString(g.Unit) {
			t.Errorf("%s: unit %q", g.Name, g.Unit)
		}
		// A tenth at most, as the issue asks; setup_s, whose spread the
		// driver does not hold to its bound, carries the contract's largest.
		if limit := map[bool]float64{false: 0.10, true: 0.25}[g.Name == "setup_s"]; g.Bound <= 0 || g.Bound > limit {
			t.Errorf("%s: bound %v, want in (0, %v]", g.Name, g.Bound, limit)
		}
		if g.Better != "lower" && g.Better != "higher" {
			t.Errorf("%s: better %q", g.Name, g.Better)
		}
		if g.Name == "setup_s" && (g.Unit != "s" || g.Better != "lower") {
			t.Errorf("setup_s must be in s, lower better")
		}
	}
	if _, ok := endToEnd["setup_s"]; !ok {
		t.Error("no setup_s among the end-to-end metrics")
	}
	perLayer := map[string]string{}
	for _, p := range c.PerLayer {
		name("per-layer metric", p.Name)
		perLayer[p.Name] = p.Unit
		if !unitRE.MatchString(p.Unit) {
			t.Errorf("%s: unit %q", p.Name, p.Unit)
		}
		if p.Better != "lower" && p.Better != "higher" {
			t.Errorf("%s: better %q", p.Name, p.Better)
		}
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}

	same := func(w, kind string, got metrics, want map[string]string) {
		for n, m := range got {
			if unit, ok := want[n]; !ok {
				t.Errorf("%s: emits %s metric %s, which BENCHMARK.json does not name", w, kind, n)
			} else if unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w, n, m.Unit, unit)
			}
		}
		for n := range want {
			if _, ok := got[n]; !ok {
				t.Errorf("%s: does not emit %s metric %s", w, kind, n)
			}
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := run(tinyConfig(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				same(w.name, "per-layer", res.Metrics, perLayer)
				continue
			}
			same(w.name, "end-to-end", res.Metrics, endToEnd)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, n, m.Value)
				}
			}
			// What an end-to-end run reports without gating it is in the
			// per-layer list, under the same name and unit.
			for n, m := range res.Timing {
				if perLayer[n] != m.Unit {
					t.Errorf("%s: reports %s in %q; the per-layer list has unit %q", w.name, n, m.Unit, perLayer[n])
				}
			}
		}
	}
}

// TestCountsRepeat: with one caller and a fixed op count, what the
// program counts is a function of the seed alone.
func TestCountsRepeat(t *testing.T) {
	counted := func(n string) bool {
		return strings.HasPrefix(n, "db.") && strings.HasSuffix(n, "_per_op") ||
			n == "rtlib.iterations_per_op" ||
			strings.HasPrefix(n, "plancache.") && n != "plancache.hit_us_per_op"
	}
	for _, w := range workloads {
		a, _, err := run(tinyConfig(t, w.name, true))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := run(tinyConfig(t, w.name, true))
		if err != nil {
			t.Fatal(err)
		}
		for n, m := range a.Metrics {
			if counted(n) && m.Value != b.Metrics[n].Value {
				t.Errorf("%s: %s was %v, then %v on the same seed", w.name, n, m.Value, b.Metrics[n].Value)
			}
		}
	}
}

// TestWrongAnswerFails: an answer that differs from the oracle's, in
// its rows or only in their content, is a failed operation.
func TestWrongAnswerFails(t *testing.T) {
	cfg := tinyConfig(t, "closure_cold", false)
	in, _, cleanup, err := build(cfg, workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	c := in.callers[0]
	var s samples
	for _, corrupt := range []func(*answer){
		func(a *answer) {},
		func(a *answer) { a.rows++ },
		func(a *answer) { a.sum++ },
	} {
		o := c.next()
		corrupt(&o.want)
		r, err := c.do(o)
		s.record(o, 0, r.answer(), err)
	}
	if s.attempted != 3 || s.failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2; first failure: %s", s.attempted, s.failed, s.firstFailure)
	}
}

func TestOracle(t *testing.T) {
	// a -> b -> c -> a, c -> d
	g := newGraph([]edge{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"c", "d"}})
	var want answer
	for _, y := range []string{"a", "b", "c", "d"} {
		want.add(y)
	}
	if got := g.closureFrom("a"); got != want {
		t.Errorf("closureFrom(a) = %+v, want %+v", got, want)
	}
	if got := g.closureFrom("d"); got != (answer{}) {
		t.Errorf("closureFrom(d) = %+v, want empty", got)
	}
	if got := g.closure(); got.rows != 12 {
		t.Errorf("closure has %d rows, want 12", got.rows)
	}

	// Node 5 of a heap-numbered tree is on level 2 with 4, 6 and 7.
	want = answer{}
	for _, i := range []int{4, 5, 6, 7} {
		want.add(treeNode("t", i))
	}
	if got := sgFrom("t", 5); got != want {
		t.Errorf("sgFrom(5) = %+v, want %+v", got, want)
	}
	if got := sgFrom("t", 1); got != (answer{}) {
		t.Errorf("the root has no generation, got %+v", got)
	}

	rb := &ruleBase{bodies: map[string][]string{}, facts: map[string]edge{"b0": {"x0", "y0"}, "b1": {"x1", "y1"}}}
	rb.addRule("p", "q")
	rb.addRule("q", "b0")
	rb.addRule("p", "b1")
	rb.addRule("r", "q")
	want = answer{}
	want.add("x0", "y0")
	want.add("x1", "y1")
	if got := rb.answerTo("p"); got != want {
		t.Errorf("answerTo(p) = %+v, want %+v", got, want)
	}
	if got := rb.answerTo("r"); got.rows != 1 {
		t.Errorf("answerTo(r) has %d rows, want 1", got.rows)
	}

	// The program's rows reduce to the same answer whatever their order,
	// and the separator keeps ("ab","c") apart from ("a","bc").
	rows := []rel.Tuple{{rel.NewString("x1"), rel.NewString("y1")}, {rel.NewString("x0"), rel.NewString("y0")}}
	if got := answerOf(rows); got != want {
		t.Errorf("answerOf = %+v, want %+v", got, want)
	}
	var ab, a answer
	ab.add("ab", "c")
	a.add("a", "bc")
	if ab == a {
		t.Error("checksum ignores where one value ends and the next begins")
	}
}

// TestQuartiles pins the spread measure to Python's
// statistics.quantiles(v, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"dkbms"
	"dkbms/internal/rel"
	"dkbms/internal/workload"
)

func init() {
	register("parallel-speedup", "clique wavefront on the scheduler pool vs sequential, swept over GOMAXPROCS", parallelSpeedup)
}

// answerKey canonicalizes a result's rows for byte-identical-answer
// verification across evaluation modes.
func answerKey(res *dkbms.QueryResult) string {
	keys := make([]string, len(res.Rows))
	for i, tu := range res.Rows {
		keys[i] = tu.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// twinTreeRules close a disjoint copy of the fig12 tree (parent2) beside
// treeStore's ancestor: ancestor and ancestor2 are two equal recursive
// cliques with no path between them, and either, reading both roots'
// descendants, is a small serial tail.
const twinTreeRules = `
ancestor2(X, Y) :- parent2(X, Y).
ancestor2(X, Y) :- parent2(X, Z), ancestor2(Z, Y).
either(Y) :- ancestor(t1, Y).
either(Y) :- ancestor2(ut1, Y).
`

// parallelSpeedup measures what QueryOptions.Parallel is: on the
// testbed's evaluation pool, independent evaluation-order nodes run as a
// dependency wavefront (paper conclusion 7a at clique granularity),
// each clique still the sequential semi-naive routine. The program's two
// equal cliques bound the gain at 2×, however many cores. One slot and
// the waiting caller already run both at once, so GOMAXPROCS, not the
// pool's size, decides how many run in parallel.
func parallelSpeedup(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "parallel-speedup",
		Title: "t_e: sequential semi-naive vs clique wavefront on the scheduler pool, by GOMAXPROCS",
		Paper: "(paper conclusion 7a: independent recursive equations evaluated in parallel)",
		Cols:  []string{"workload", "GOMAXPROCS", "sequential(ms)", "parallel(ms)", "speedup"},
	}
	depth := cfg.pick(10, 7)
	procs := []int{1, 2, 4, 8}
	if cfg.Quick {
		procs = []int{1, 2}
	}

	tb, err := treeStore(depth, true)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	tree := workload.FullBinaryTree(depth)
	twin := make([]rel.Tuple, len(tree))
	for i, e := range tree {
		twin[i] = rel.Tuple{rel.NewString("u" + e[0].Str), rel.NewString("u" + e[1].Str)}
	}
	if err := tb.AssertTuples("parent2", twin); err != nil {
		return nil, err
	}
	if err := tb.CreateFactIndex("parent2", 0); err != nil {
		return nil, err
	}
	if err := tb.Load(twinTreeRules); err != nil {
		return nil, err
	}
	const q = "?- either(W)."

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range procs {
		runtime.GOMAXPROCS(n)
		seq, seqRes, err := evalTime(tb, q, dkbms.QueryOptions{NoOptimize: true}, cfg.reps())
		if err != nil {
			return nil, err
		}
		par, parRes, err := evalTime(tb, q, dkbms.QueryOptions{NoOptimize: true, Parallel: true}, cfg.reps())
		if err != nil {
			return nil, err
		}
		if answerKey(seqRes) != answerKey(parRes) {
			return nil, fmt.Errorf("parallel-speedup: GOMAXPROCS=%d: answers differ", n)
		}
		rep.Rows = append(rep.Rows, []string{
			"twin fig12 trees", fmt.Sprint(n), ms(seq), ms(par), fmt.Sprintf("%.1fx", ratio(seq, par)),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("host has %d CPU(s); both modes issue the same statements, so any gain is the two cliques overlapping on cores", runtime.NumCPU()),
		"answers verified byte-identical between modes at every point")
	return rep, nil
}

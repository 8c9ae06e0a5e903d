package bench

import (
	"fmt"
	"time"

	"dkbms"
	"dkbms/internal/rel"
	"dkbms/internal/rtlib"
	"dkbms/internal/stored"
	"dkbms/internal/workload"
)

func init() {
	register("ablation-index", "system-relation indexes on/off: extraction time vs R_s", ablationIndex)
	register("ablation-join", "fact-relation index on/off: LFP join strategy in t_e", ablationJoin)
	register("ablation-tcop", "specialized TC operator vs SQL-interface LFP loop", ablationTCOp)
	register("ablation-storage", "compiled rule storage on/off: query-side extraction cost", ablationStorage)
}

// ablationIndex removes the B+tree indexes on rulesource/reachablepreds
// — the design choice behind Fig 7's flatness — and shows extraction
// time regaining its dependence on R_s.
func ablationIndex(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "ablation-index",
		Title: "t_extract vs R_s with and without system-relation indexes",
		Paper: "(design claim underlying Fig 7: the flatness comes from the indexes)",
		Cols:  []string{"R_s", "indexed(us)", "unindexed(us)"},
	}
	chainLen := 7
	sizes := []int{70, 140, 280}
	if !cfg.Quick {
		sizes = append(sizes, 560, 1120)
	}
	for _, rs := range sizes {
		nChains := rs / chainLen
		var times [2]time.Duration
		for mode, noIdx := range []bool{false, true} {
			d, m, heads, err := rawChainStore(nChains, chainLen, stored.Options{NoIndexes: noIdx})
			if err != nil {
				return nil, err
			}
			best, err := measure(cfg.reps(), func() (time.Duration, error) {
				t0 := time.Now()
				if _, err := m.ExtractRelevant([]string{heads[0]}); err != nil {
					return 0, err
				}
				return time.Since(t0), nil
			})
			d.Close()
			if err != nil {
				return nil, err
			}
			times[mode] = best
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(rs), us(times[0]), us(times[1])})
	}
	return rep, nil
}

// ablationJoin drops the index on the fact relation's join column, so
// every LFP iteration's delta⋈parent join degrades from an index
// nested-loop probe to a hash build over the full relation.
func ablationJoin(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "ablation-join",
		Title: "t_e with and without an index on parent's source column",
		Paper: "(paper conclusion 6c/6d: iteration-join access paths matter — unless the SQL-interface overheads dominate, which Tests 5-6 show they do)",
		Cols:  []string{"D_tot", "indexed(ms)", "unindexed(ms)", "speedup"},
	}
	rep.Notes = append(rep.Notes,
		"a ~1x result here is itself the paper's point: per-iteration EXCEPT/DISTINCT/temp-table traffic, not the join, bounds t_e through a SQL interface")
	for _, depth := range []int{cfg.pick(9, 6), cfg.pick(11, 7)} {
		var times [2]time.Duration
		for mode, indexed := range []bool{true, false} {
			tb, err := treeStore(depth, indexed)
			if err != nil {
				return nil, err
			}
			d, _, err := evalTime(tb, queryAt(workload.TreeNode(2)),
				dkbms.QueryOptions{NoOptimize: true}, cfg.reps())
			tb.Close()
			if err != nil {
				return nil, err
			}
			times[mode] = d
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(len(workload.FullBinaryTree(depth))),
			ms(times[0]), ms(times[1]), fmt.Sprintf("%.1fx", ratio(times[1], times[0])),
		})
	}
	return rep, nil
}

// ablationTCOp compares the full KM/SQL evaluation of the ancestor
// query against the specialized in-DBMS transitive-closure operator the
// paper's conclusions (items 6 and 8) argue for.
func ablationTCOp(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "ablation-tcop",
		Title: "SQL-interface LFP loop vs in-DBMS TC operator",
		Paper: "(paper conclusion 8: special LFP operators can be optimized far better)",
		Cols:  []string{"D_tot", "sql-lfp magic(ms)", "tc-operator(ms)", "speedup"},
	}
	for _, depth := range []int{cfg.pick(10, 6), cfg.pick(12, 8)} {
		tb, err := treeStore(depth, true)
		if err != nil {
			return nil, err
		}
		node := workload.TreeNode(2)
		sqlTime, res, err := evalTime(tb, queryAt(node), dkbms.QueryOptions{}, cfg.reps())
		if err != nil {
			tb.Close()
			return nil, err
		}
		seed := rel.NewString(node)
		var tcRows []rel.Tuple
		tcTime, err := measure(cfg.reps(), func() (time.Duration, error) {
			t0 := time.Now()
			rows, err := rtlib.TC(tb.DB(), "parent", &seed)
			if err != nil {
				return 0, err
			}
			tcRows = rows
			return time.Since(t0), nil
		})
		tb.Close()
		if err != nil {
			return nil, err
		}
		if len(tcRows) != len(res.Rows) {
			return nil, fmt.Errorf("ablation-tcop: TC operator disagrees: %d vs %d rows",
				len(tcRows), len(res.Rows))
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(len(workload.FullBinaryTree(depth))),
			ms(sqlTime), ms(tcTime), fmt.Sprintf("%.0fx", ratio(sqlTime, tcTime)),
		})
	}
	rep.Notes = append(rep.Notes, "both sides verified to return identical answer sets")
	return rep, nil
}

// ablationStorage shows the query-side benefit bought by Fig 15's
// update-side cost: with compiled rule storage a deep-chain extraction
// is a single indexed query; without, the compiler iterates hop by hop.
func ablationStorage(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "ablation-storage",
		Title: "compile-time extraction cost: compiled vs source-only rule storage",
		Paper: "(the time-space/update-query tradeoff of the paper's §6 conclusions 1-2)",
		Cols:  []string{"chain depth", "compiled(us)", "source-only(us)", "extract calls (compiled/source)"},
	}
	for _, depth := range []int{5, 20, cfg.pick(80, 40)} {
		var times [2]time.Duration
		var calls [2]int64
		for mode, o := range []stored.Options{{}, {NoCompiledRules: true}} {
			d, m, heads, err := rawChainStore(1, depth, o)
			if err != nil {
				return nil, err
			}
			before := m.StatsSnapshot().ExtractCalls
			best, err := measure(cfg.reps(), func() (time.Duration, error) {
				t0 := time.Now()
				// Iterative extraction exactly as the compiler does
				// it: the next frontier is computed after the whole
				// batch is registered, so predicates defined within
				// the batch are not re-requested.
				frontier := []string{heads[0]}
				have := map[string]bool{}
				for len(frontier) > 0 {
					rules, err := m.ExtractRelevant(frontier)
					if err != nil {
						return 0, err
					}
					if len(rules) == 0 {
						break
					}
					for _, c := range rules {
						have[c.Head.Pred] = true
					}
					next := map[string]bool{}
					for _, c := range rules {
						for _, a := range c.Body {
							if !have[a.Pred] {
								next[a.Pred] = true
							}
						}
					}
					frontier = frontier[:0]
					for p := range next {
						frontier = append(frontier, p)
					}
				}
				return time.Since(t0), nil
			})
			calls[mode] = m.StatsSnapshot().ExtractCalls - before
			d.Close()
			if err != nil {
				return nil, err
			}
			times[mode] = best
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(depth), us(times[0]), us(times[1]),
			fmt.Sprintf("%d/%d", calls[0]/int64(cfg.reps()), calls[1]/int64(cfg.reps())),
		})
	}
	return rep, nil
}

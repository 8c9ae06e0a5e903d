package bench

import (
	"fmt"
	"time"

	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/stored"
	"dkbms/internal/workload"
)

func init() {
	register("fig15", "stored D/KB update time vs R_s, with/without compiled rule storage", fig15)
	register("table8", "breakdown of D/KB update time", table8)
}

// rawChainStore builds a stored-D/KB manager (bypassing the facade so
// options can be set) pre-loaded with nChains chains of length chainLen.
func rawChainStore(nChains, chainLen int, opts stored.Options) (*db.DB, *stored.Manager, []string, error) {
	d := db.OpenMemory()
	m, err := stored.Open(d, opts)
	if err != nil {
		d.Close()
		return nil, nil, nil, err
	}
	rules, heads, bases := workload.RuleChains(nChains, chainLen)
	for _, b := range bases {
		if err := m.InsertFacts(b, workload.ChainFacts()); err != nil {
			d.Close()
			return nil, nil, nil, err
		}
	}
	if _, err := m.Update(rules); err != nil {
		d.Close()
		return nil, nil, nil, err
	}
	return d, m, heads, nil
}

// fig15 — Test 8: update time for a one-rule workspace as R_s grows,
// with and without the compiled (reachablepreds) storage structure.
// The paper: compiled-form updates are almost an order of magnitude
// slower, and t_u is relatively insensitive to R_s.
func fig15(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig15",
		Title: "t_u (one-rule update) vs R_s, compiled vs source-only rule storage",
		Paper: "compiled storage ~an order of magnitude slower to update; flat in R_s",
		Cols:  []string{"R_s", "compiled t_u(us)", "source-only t_u(us)", "ratio"},
	}
	chainLen := 9
	sizes := []int{9, 45, 90, 189}
	if !cfg.Quick {
		// Far enough that a per-update cost linear in R_s would show: a
		// scan of reachablepreds (~5 rows per stored rule here) costs
		// milliseconds at the top of this sweep.
		sizes = append(sizes, 378, 756, 1512, 3024, 6048)
	}
	for _, rs := range sizes {
		nChains := rs / chainLen
		var times [2]time.Duration
		for mode, o := range []stored.Options{{}, {NoCompiledRules: true}} {
			d, m, heads, err := rawChainStore(nChains, chainLen, o)
			if err != nil {
				return nil, err
			}
			// One new rule on top of an existing chain head.
			count := 0
			best, err := measure(cfg.reps(), func() (time.Duration, error) {
				rule := dlog.MustParseClause(fmt.Sprintf(
					"newtop%d(X, Y) :- %s(X, Y).", count, heads[0]))
				count++
				st, err := m.Update([]dlog.Clause{rule})
				if err != nil {
					return 0, err
				}
				return st.Total, nil
			})
			d.Close()
			if err != nil {
				return nil, err
			}
			times[mode] = best
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(rs), us(times[0]), us(times[1]),
			fmt.Sprintf("%.1fx", ratio(times[0], times[1])),
		})
	}
	return rep, nil
}

// table8 — Test 9: breakdown of t_u into relevant-rule extraction,
// closure computation/write, and source+dictionary writes, for
// (R_w=36, R_s=189) and (R_w=1, R_s=189). The paper: extraction is a
// significant share, and the source-form write is small.
func table8(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "table8",
		Title: "breakdown of D/KB update time",
		Paper: "t_uextract significant (42%/81%); source-form store small",
		Cols:  []string{"R_w", "R_s", "t_u(us)", "extract", "closure", "store"},
	}
	chainLen := 9
	nChains := 21 // R_s = 189, as in the paper
	for _, rw := range []int{36, 1} {
		d, m, heads, err := rawChainStore(nChains, chainLen, stored.Options{})
		if err != nil {
			return nil, err
		}
		// R_w new rules: chains of 4 stacked on stored chain heads (36 =
		// 9 chains x 4 rules), or a single rule for R_w = 1.
		var rules []dlog.Clause
		if rw == 1 {
			rules = append(rules, dlog.MustParseClause(fmt.Sprintf(
				"w0_0(X, Y) :- %s(X, Y).", heads[0])))
		} else {
			perChain := 4
			for c := 0; c < rw/perChain; c++ {
				for j := 0; j < perChain; j++ {
					var body string
					if j == perChain-1 {
						body = heads[c%len(heads)]
					} else {
						body = fmt.Sprintf("w%d_%d", c, j+1)
					}
					rules = append(rules, dlog.MustParseClause(fmt.Sprintf(
						"w%d_%d(X, Y) :- %s(X, Y).", c, j, body)))
				}
			}
		}
		st, err := m.Update(rules)
		d.Close()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(len(rules)), fmt.Sprint(nChains * chainLen), us(st.Total),
			pct(st.Extract, st.Total), pct(st.TC, st.Total), pct(st.Store, st.Total),
		})
	}
	return rep, nil
}

package bench

import (
	"fmt"
	"time"

	"dkbms"
	"dkbms/internal/workload"
)

func init() {
	register("fig7", "relevant-rule extraction time vs total stored rules (R_s), per R_r", fig7)
	register("fig8", "relevant-rule extraction time vs relevant rules (R_r)", fig8)
	register("fig9", "dictionary read time vs total stored predicates (P_s), per P_r", fig9)
	register("fig10", "dictionary read time vs relevant predicates (P_r), per P_s", fig10)
	register("table4", "breakdown of D/KB query compilation time", table4)
}

// fig7 — Test 1: t_extract versus R_s for R_r ∈ {1, 7, 20}. The paper
// finds t_extract insensitive to R_s thanks to the indexed compiled
// rule storage (reachablepreds).
func fig7(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig7",
		Title: "t_extract vs R_s (total stored rules), per R_r",
		Paper: "flat in R_s: extraction cost depends only on the rules extracted",
		Cols:  []string{"R_r", "R_s", "t_extract(us)"},
	}
	rrs := []int{1, 7, 20}
	sizes := []int{40, 80, 160, 320}
	if !cfg.Quick {
		sizes = append(sizes, 640, 1280)
	}
	type key struct{ rr, rs int }
	extract := make(map[key]time.Duration)
	for _, rr := range rrs {
		for _, rs := range sizes {
			nChains := (rs + rr - 1) / rr
			tb, heads, err := chainStore(nChains, rr, false)
			if err != nil {
				return nil, err
			}
			d, err := measure(cfg.reps(), func() (time.Duration, error) { return extractTime(tb, heads[0], rr) })
			tb.Close()
			if err != nil {
				return nil, err
			}
			extract[key{rr, rs}] = d
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprint(rr), fmt.Sprint(rs), us(d),
			})
		}
	}
	// Measured flatness: max/min across R_s per R_r.
	for _, rr := range rrs {
		min, max := time.Duration(0), time.Duration(0)
		for _, rs := range sizes {
			d := extract[key{rr, rs}]
			if min == 0 || d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"R_r=%d: t_extract varies %.1fx across a %dx sweep of R_s",
			rr, float64(max)/float64(min), sizes[len(sizes)-1]/sizes[0]))
	}
	return rep, nil
}

// fig8 — Test 1: t_extract versus R_r at fixed R_s; grows with R_r
// (join selectivity of the extraction query).
func fig8(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig8",
		Title: "t_extract vs R_r (rules relevant to the query)",
		Paper: "grows with R_r — extraction cost tracks the number of rules extracted",
		Cols:  []string{"R_r", "R_s", "t_extract(us)"},
	}
	rs := cfg.pick(640, 120)
	rrs := []int{1, 2, 5, 10, 20, 40}
	for _, rr := range rrs {
		nChains := (rs + rr - 1) / rr
		tb, heads, err := chainStore(nChains, rr, false)
		if err != nil {
			return nil, err
		}
		d, err := measure(cfg.reps(), func() (time.Duration, error) { return extractTime(tb, heads[0], rr) })
		tb.Close()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(rr), fmt.Sprint(rs), us(d)})
	}
	return rep, nil
}

// extractTime compiles the query on a chain's head predicate and
// returns t_extract. It fails unless the compiler extracted exactly the
// chain's rr rules, the R_r that fig7 and fig8 label the point with.
func extractTime(tb *dkbms.Testbed, head string, rr int) (time.Duration, error) {
	res, err := compileOnce(tb, fmt.Sprintf("?- %s(x, W).", head), false)
	if err != nil {
		return 0, err
	}
	if res.Compile.RelevantRules != rr {
		return 0, fmt.Errorf("%d relevant rules extracted from a chain of %d", res.Compile.RelevantRules, rr)
	}
	return res.Compile.Extract, nil
}

// fig9 — Test 2: t_readdict versus P_s (total stored predicates) for
// P_r ∈ {1, 4, 10}; flat in P_s because the dictionaries are indexed on
// predname.
func fig9(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig9",
		Title: "t_readdict vs P_s (total stored predicates), per P_r",
		Paper: "flat in P_s: indexed dictionary lookups",
		Cols:  []string{"P_r", "P_s", "t_readdict(us)"},
	}
	prs := []int{1, 4, 10}
	chainLen := 10
	counts := []int{4, 8, 16, 32}
	if !cfg.Quick {
		counts = append(counts, 64, 128)
	}
	for _, pr := range prs {
		for _, nChains := range counts {
			tb, _, err := chainStore(nChains, chainLen, true)
			if err != nil {
				return nil, err
			}
			// Query at depth so exactly pr rules/preds are relevant.
			q := fmt.Sprintf("?- %s(x, W).", workload.ChainPred(0, chainLen-pr))
			d, err := measure(cfg.reps(), func() (time.Duration, error) {
				res, err := compileOnce(tb, q, false)
				if err != nil {
					return 0, err
				}
				return res.Compile.ReadDict, nil
			})
			tb.Close()
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprint(pr), fmt.Sprint(nChains * chainLen), us(d),
			})
		}
	}
	return rep, nil
}

// fig10 — Test 2: t_readdict versus P_r for three P_s values; grows
// with P_r.
func fig10(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig10",
		Title: "t_readdict vs P_r (relevant predicates), per P_s",
		Paper: "grows with P_r — reads scale with the predicates the query touches",
		Cols:  []string{"P_s", "P_r", "t_readdict(us)"},
	}
	chainLen := 20
	counts := []int{cfg.pick(16, 4), cfg.pick(64, 8)}
	prs := []int{1, 2, 5, 10, 20}
	for _, nChains := range counts {
		tb, _, err := chainStore(nChains, chainLen, true)
		if err != nil {
			return nil, err
		}
		for _, pr := range prs {
			q := fmt.Sprintf("?- %s(x, W).", workload.ChainPred(0, chainLen-pr))
			d, err := measure(cfg.reps(), func() (time.Duration, error) {
				res, err := compileOnce(tb, q, false)
				if err != nil {
					return 0, err
				}
				return res.Compile.ReadDict, nil
			})
			if err != nil {
				tb.Close()
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprint(nChains * chainLen), fmt.Sprint(pr), us(d),
			})
		}
		tb.Close()
	}
	return rep, nil
}

// table4 — Test 3: relative contributions of compilation steps for
// R_r ∈ {1, 7, 20}. The paper reports t_extract's share growing from
// 25% to 67% as R_r goes 1→20 (its remaining share went to C compile
// and link of the emitted code fragment, which has no analog here — the
// program-construction time appears as t_codegen).
func table4(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "table4",
		Title: "breakdown of D/KB query compilation time",
		Paper: "t_extract share grows sharply with R_r (25%→67% for 1→20)",
		Cols: []string{"R_r", "t_c(us)", "setup", "extract", "readdict",
			"evalorder", "typecheck", "codegen"},
	}
	rs := cfg.pick(400, 120)
	for _, rr := range []int{1, 7, 20} {
		nChains := (rs + rr - 1) / rr
		tb, heads, err := chainStore(nChains, rr, true)
		if err != nil {
			return nil, err
		}
		type comps struct {
			total, setup, extract, readdict, evalorder, typecheck, codegen time.Duration
		}
		var c comps
		_, err = measure(cfg.reps(), func() (time.Duration, error) {
			res, err := compileOnce(tb, fmt.Sprintf("?- %s(x, W).", heads[0]), false)
			if err != nil {
				return 0, err
			}
			s := res.Compile
			if c.total == 0 || s.Total < c.total {
				c = comps{s.Total, s.Setup, s.Extract, s.ReadDict, s.EvalOrder, s.TypeCheck, s.CodeGen}
			}
			return s.Total, nil
		})
		tb.Close()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(rr), us(c.total),
			pct(c.setup, c.total), pct(c.extract, c.total), pct(c.readdict, c.total),
			pct(c.evalorder, c.total), pct(c.typecheck, c.total), pct(c.codegen, c.total),
		})
	}
	rep.Notes = append(rep.Notes,
		"t_cclink (compile+link of the paper's emitted C) has no analog: the program is interpreted data")
	return rep, nil
}

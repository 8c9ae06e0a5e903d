package rtlib

import (
	"fmt"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

// evalCliqueNaive computes the least fixed point of a clique by naive
// iteration: R_{k+1} = f(R_k) recomputed from scratch each round,
// terminating when f adds nothing new. It is a different algorithm from
// the semi-naive driver (fixpoint.run) and the paper's comparison
// baseline, so it keeps its own loop; it follows the paper's
// embedded-SQL realization: fresh temporary tables per iteration, a
// set-difference termination check, and a full table copy to install
// each round's result. fp carries the clique (exit and Rules are both
// part of f) and its accumulators, already created and seeded.
func evalCliqueNaive(fp *fixpoint, seeds map[string][]rel.Tuple) error {
	ns, sp, d := fp.Stats, fp.Span, fp.DB
	// Iteration 0 records the seed contents so per-iteration delta
	// cardinalities sum to the node's final tuple count.
	if sp != nil {
		zero := sp.Start("iteration 0")
		for _, p := range fp.Preds {
			zero.SetInt("delta("+p+")", int64(d.TableRows(fp.TableOf(p))))
		}
		zero.End()
	}
	rules := append(append([]codegen.RuleSQL(nil), fp.exit...), fp.Rules...)

	for {
		if err := checkCtx(fp.Ctx); err != nil {
			return err
		}
		ns.Iterations++
		var itSp *obs.Span
		if sp != nil {
			itSp = sp.Start(fmt.Sprintf("iteration %d", ns.Iterations))
		}
		// new_p := f(R) for each predicate, into fresh tables.
		newNames := make(map[string]string, len(fp.Preds))
		for _, p := range fp.Preds {
			name := fmt.Sprintf("%snew%d_%s", fp.Prefix, ns.Iterations, sanitize(p))
			if err := fp.createTemp(name, p); err != nil {
				return err
			}
			newNames[p] = name
			// Seeds are part of every f(R) application (they are facts
			// of the predicate).
			if err := d.InsertTuples(name, seeds[p]); err != nil {
				return err
			}
		}
		for i := range rules {
			r := &rules[i]
			if err := fp.insertAll(r, newNames[r.Head], itSp); err != nil {
				return err
			}
		}
		// Termination: f(R) added nothing beyond R. The check is the
		// full set difference the paper calls out as expensive under a
		// plain SQL interface.
		grew := false
		tcSp := itSp.Start("termcheck")
		for _, p := range fp.Preds {
			t0 := time.Now()
			missing, err := fp.Stmts.relation(p, readMissing)
			if err != nil {
				return err
			}
			diff, err := countRows(fp.Ctx, d, missing, newNames[p], fp.TableOf(p))
			if err != nil {
				return err
			}
			ns.TermCheck += time.Since(t0)
			if diff > 0 {
				grew = true
			}
			if itSp != nil {
				itSp.SetInt("delta("+p+")", int64(diff))
				itSp.SetInt("acc("+p+")", int64(d.TableRows(newNames[p])))
			}
		}
		tcSp.End()
		itSp.End()
		// Install the new round: drop old tables, rename-by-copy (the
		// SQL interface has no rename, as the paper notes — copying is
		// part of the measured overhead).
		for _, p := range fp.Preds {
			t0 := time.Now()
			old := fp.TableOf(p)
			if err := d.Exec("DELETE FROM " + old); err != nil {
				return err
			}
			copyStmt, err := fp.Stmts.relation(p, copyInto)
			if err != nil {
				return err
			}
			if err := copyStmt.Exec(fp.Ctx, d, nil, nil, old, newNames[p]); err != nil {
				return err
			}
			if err := fp.Temps.drop(newNames[p]); err != nil {
				return err
			}
			ns.TempTable += time.Since(t0)
		}
		if !grew {
			return nil
		}
	}
}

// seedTuplesValid verifies seed arity/type against schemas before any
// table is created, so failures surface as clean errors.
func seedTuplesValid(prog *codegen.Program) error {
	for _, s := range prog.Seeds {
		sch := prog.Schemas[s.Pred]
		if sch == nil {
			return fmt.Errorf("rtlib: seed for unknown predicate %s", s.Pred)
		}
		if len(s.Tuple) != sch.Len() {
			return fmt.Errorf("rtlib: seed arity mismatch for %s", s.Pred)
		}
		for i, v := range s.Tuple {
			if v.Kind != sch.Col(i).Type {
				return fmt.Errorf("rtlib: seed type mismatch for %s column %d", s.Pred, i)
			}
		}
	}
	return nil
}

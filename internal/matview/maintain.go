package matview

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/rtlib"
	"dkbms/internal/storage"
)

// Maintain refreshes the view through one commit's fact deltas and
// returns the refreshed answer rows (a fresh slice; the previous
// memoized rows are never mutated). It must run on the single-writer
// commit path, after the commit published: base tables are then in
// their post-commit state, which is exactly what the delta rounds join
// against.
//
// Deletions go first (Delete-and-Rederive against the pre-state, which
// is reconstructed as post-state ∪ deleted), then insertions propagate
// semi-naive. On error the view is inconsistent and the caller must
// drop it.
func (v *View) Maintain(d *db.DB, ev *Event) ([]rel.Tuple, error) {
	start := time.Now()
	tr := obs.NewTrace("maintain")

	// Restrict the commit footprint to the base predicates the program
	// reads.
	ins := make(map[string][]rel.Tuple)
	del := make(map[string][]rel.Tuple)
	for _, p := range v.prog.BasePreds {
		table := codegen.BaseTable(p)
		for _, td := range ev.Deltas {
			if td.Table != table {
				continue
			}
			if len(td.Inserted) > 0 {
				ins[p] = append(ins[p], td.Inserted...)
			}
			if len(td.Deleted) > 0 {
				del[p] = append(del[p], td.Deleted...)
			}
		}
	}

	m := &maint{d: d, v: v, temps: rtlib.NewTempTables(d), stmts: rtlib.NewStatements(d, v.prog.Schemas),
		prefix: fmt.Sprintf("mv%d_", atomic.AddUint64(&viewSeq, 1))}
	// Best-effort: a failed scratch drop leaks a temp table until the
	// database closes, nothing worse.
	defer m.temps.DropAll() //nolint:errcheck
	if len(del) > 0 {
		if err := m.dred(del, tr.Root()); err != nil {
			return nil, err
		}
	}
	if len(ins) > 0 {
		if err := m.propagate(ins, tr.Root()); err != nil {
			return nil, err
		}
	}

	rows, err := m.readAll(v.prog.QueryPred, v.tableOf(v.prog.QueryPred))
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	tr.Root().SetInt("delta_tuples", int64(m.deltaTuples))
	tr.Root().SetInt("maintain_us", elapsed.Microseconds())
	tr.Finish()
	v.maintains.Add(1)
	v.lastDelta.Store(int64(m.deltaTuples))
	v.lastNs.Store(int64(elapsed))
	v.lastTrace.Store(tr)
	return rows.Tuples, nil
}

// maint is the working state of one maintenance run: the scratch temp
// tables it creates (base deltas, pre-state copies, candidate sets, the
// fixpoint driver's delta tables) are dropped when the run ends,
// leaving only the view's accumulators, and the statements it prepares
// go with it.
type maint struct {
	d      *db.DB
	v      *View
	prefix string
	temps  *rtlib.TempTables
	stmts  *rtlib.Statements
	seq    int
	// deltaTuples counts derived-relation changes applied: tuples
	// over-deleted plus delta tuples promoted into accumulators.
	deltaTuples int
}

// scratch creates a scratch table holding the given tuples.
func (m *maint) scratch(hint string, schema *rel.Schema, tuples []rel.Tuple) (string, error) {
	m.seq++
	name := fmt.Sprintf("%s%s%d", m.prefix, hint, m.seq)
	if err := m.temps.Create(name, schema); err != nil {
		return "", err
	}
	return name, m.d.InsertTuples(name, tuples)
}

// readAll reads table, a relation of pred.
func (m *maint) readAll(pred, table string) (*db.Rows, error) {
	stmt, err := m.stmts.Relation(pred, rtlib.ReadAll)
	if err != nil {
		return nil, err
	}
	return stmt.Query(context.Background(), nil, nil, table)
}

// baseDelta materializes a commit's per-predicate base deltas as the
// fixpoint's first delta (base-table deltas and pre-state copies reuse
// the extensional schema) and counts them.
func (m *maint) baseDelta(hint string, delta map[string][]rel.Tuple) (first map[string]string, n int, err error) {
	first = make(map[string]string, len(delta))
	for pred, tuples := range delta {
		t := m.d.Table(codegen.BaseTable(pred))
		if t == nil {
			return nil, 0, fmt.Errorf("matview: base table %s vanished", codegen.BaseTable(pred))
		}
		if first[pred], err = m.scratch(hint, t.Schema, tuples); err != nil {
			return nil, 0, err
		}
		n += len(tuples)
	}
	return first, n, nil
}

// fixpoint runs the program's delta rules from a first delta to the
// fixpoint on rtlib's driver. Delta propagation differentiates
// globally, not per clique — an exit rule of a later node reads derived
// relations of earlier nodes, so it too must fire on their deltas —
// hence every rule of the program and every derived predicate. The
// maintenance trace keeps to its phase spans: rule statements run
// untraced. It returns the number of rounds that derived something (the
// last round only confirms the fixpoint).
func (m *maint) fixpoint(tag string, first map[string]string, tableOf, into func(string) string) (int, error) {
	var ns rtlib.NodeStats
	fp := &rtlib.Fixpoint{
		DB: m.d, Temps: m.temps, Prefix: m.prefix + tag,
		Schemas: m.v.prog.Schemas, Preds: m.v.preds, Rules: m.v.rules,
		TableOf: tableOf, Into: into, First: first, Stats: &ns, Stmts: m.stmts,
	}
	err := fp.Run()
	return ns.Iterations - 1, err
}

// derivedRows sums the sizes of the view's accumulators.
func (m *maint) derivedRows() int {
	n := 0
	for _, p := range m.v.preds {
		n += m.d.TableRows(m.v.tables[p])
	}
	return n
}

// --- Insert propagation (semi-naive delta rules) ---

// propagate applies base-table insertions: round 1 evaluates every rule
// once per touched-base FROM position with the delta at that position
// and full post-state elsewhere; later rounds differentiate derived
// positions exactly as an evaluation's semi-naive loop does — it is the
// same loop — with the EXCEPT chain deduplicating across occurrences.
// Monotonicity makes this sound and complete: lfp(post) = lfp(pre ∪ Δ)
// and every new derivation uses at least one new tuple in some
// position.
func (m *maint) propagate(ins map[string][]rel.Tuple, root *obs.Span) error {
	sp := root.Start("propagate")
	defer sp.End()
	first, base, err := m.baseDelta("ins_", ins)
	if err != nil {
		return err
	}
	sp.SetInt("inserted_base", int64(base))
	before := m.derivedRows()
	rounds, err := m.fixpoint("i", first, m.v.tableOf, m.v.tableOf)
	if err != nil {
		return err
	}
	m.deltaTuples += m.derivedRows() - before
	sp.SetInt("rounds", int64(rounds))
	sp.SetInt("delta_tuples", int64(m.deltaTuples))
	return nil
}

// --- Delete-and-Rederive ---

// dred applies base-table deletions with the DRed algorithm:
//
//  1. reconstruct pre-state for each deleted-from base table
//     (post ∪ deleted — the accumulators are still pre-state);
//  2. over-delete: propagate deletion candidates through the delta
//     rules against the pre-state, to a fixpoint — the same driver run
//     as propagate, resolving predicates to the pre-state and
//     promoting into candidate tables instead of the accumulators;
//  3. remove the candidates (except magic seeds, which are axioms of
//     the program) from the accumulators;
//  4. re-derive survivors: one-step rule evaluation over the now
//     post-state relations, re-inserting any candidate that is still
//     derivable, to a fixpoint.
func (m *maint) dred(del map[string][]rel.Tuple, root *obs.Span) error {
	sp := root.Start("dred")
	defer sp.End()
	first, base, err := m.baseDelta("del_", del)
	if err != nil {
		return err
	}
	sp.SetInt("deleted_base", int64(base))

	// Pre-state copies of the deleted-from base tables (which exist:
	// baseDelta just read their schemas).
	pre := make(map[string]string, len(del))
	for pred, tuples := range del {
		table := codegen.BaseTable(pred)
		pt, err := m.scratch("pre_", m.d.Table(table).Schema, tuples)
		if err != nil {
			return err
		}
		copyInto, err := m.stmts.Relation(pred, rtlib.CopyInto)
		if err != nil {
			return err
		}
		if err := copyInto.Exec(context.Background(), nil, nil, pt, table); err != nil {
			return err
		}
		pre[pred] = pt
	}
	preOf := func(pred string) string {
		if p, ok := pre[pred]; ok {
			return p
		}
		return m.v.tableOf(pred) // accumulators are still pre-state here
	}
	// Accumulated deletion candidates per derived predicate.
	cand := make(map[string]string, len(m.v.preds))
	for _, p := range m.v.preds {
		if cand[p], err = m.scratch("dd_", m.v.prog.Schemas[p], nil); err != nil {
			return err
		}
	}
	// Candidates breed candidates, against the pre-state throughout.
	if _, err := m.fixpoint("x", first, preOf, func(p string) string { return cand[p] }); err != nil {
		return err
	}

	// Apply: delete the candidates from the accumulators, protecting
	// seeds (they are facts of the program, never derived).
	seeds := make(map[string]map[string]bool, len(m.v.prog.Seeds))
	for _, s := range m.v.prog.Seeds {
		if seeds[s.Pred] == nil {
			seeds[s.Pred] = make(map[string]bool)
		}
		seeds[s.Pred][s.Tuple.Key()] = true
	}
	candidates := make(map[string]map[string]rel.Tuple, len(cand))
	overDeleted := 0
	for _, p := range m.v.preds {
		rows, err := m.readAll(p, cand[p])
		if err != nil {
			return err
		}
		if len(rows.Tuples) == 0 {
			continue
		}
		victims := make(map[string]rel.Tuple, len(rows.Tuples))
		for _, tu := range rows.Tuples {
			k := tu.Key()
			if seeds[p][k] {
				continue
			}
			victims[k] = tu
		}
		n, err := deleteMatching(m.d, m.v.tableOf(p), victims)
		if err != nil {
			return err
		}
		overDeleted += n
		if n > 0 {
			candidates[p] = victims
		}
	}
	m.deltaTuples += overDeleted
	sp.SetInt("overdeleted", int64(overDeleted))

	// Re-derive survivors: one-step consequences over the post-state,
	// intersected with the candidate sets (Go-side — the SQL dialect
	// has no subqueries), to a fixpoint.
	rederived := 0
	rounds := 0
	var key []byte // scratch: probing cand allocates nothing
	for changed := true; changed; {
		changed = false
		rounds++
		for i := range m.v.rules {
			r := &m.v.rules[i]
			cand := candidates[r.Head]
			if len(cand) == 0 {
				continue
			}
			stmt, err := m.stmts.Rule(r, rtlib.RuleSelect)
			if err != nil {
				return err
			}
			rows, err := stmt.Query(context.Background(), nil, nil, rtlib.Tables(r, m.v.tableOf)...)
			if err != nil {
				return fmt.Errorf("matview: re-derive rule %q: %w", r.Source, err)
			}
			var back []rel.Tuple
			for _, tu := range rows.Tuples {
				key = tu.AppendKey(key[:0], nil)
				if _, ok := cand[string(key)]; !ok {
					continue
				}
				back = append(back, tu)
				delete(cand, string(key))
			}
			if len(back) == 0 {
				continue
			}
			if err := m.d.InsertTuples(m.v.tableOf(r.Head), back); err != nil {
				return err
			}
			rederived += len(back)
			changed = true
		}
	}
	m.deltaTuples += rederived
	sp.SetInt("rederived", int64(rederived))
	sp.SetInt("rounds", int64(rounds))
	return nil
}

// deleteMatching removes the rows whose keys appear in victims from a
// table, in one scan (the dialect's DELETE takes only literal
// conjunctions, so per-tuple statements would rescan per victim); a
// stored record is its tuple's key, so the scan decodes nothing. It
// returns how many rows actually left the table — candidates a magic
// program never materialized simply do not match.
func deleteMatching(d *db.DB, table string, victims map[string]rel.Tuple) (int, error) {
	t := d.Table(table)
	if t == nil {
		return 0, fmt.Errorf("matview: view relation %s vanished", table)
	}
	type victim struct {
		rid storage.RID
		tu  rel.Tuple
	}
	var hit []victim
	err := t.Heap.Scan(func(rid storage.RID, rec []byte) error {
		if tu, ok := victims[string(rec)]; ok {
			hit = append(hit, victim{rid, tu})
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, vx := range hit {
		if err := t.DeleteRID(vx.rid, vx.tu); err != nil {
			return len(hit), err
		}
	}
	return len(hit), nil
}

// Package stored implements the testbed's Stored D/KB Manager (paper
// §3.2.3, §4.1, §4.3). The stored data/knowledge base lives entirely
// inside the relational DBMS:
//
//   - facts (the extensional database) as ordinary relations named
//     edb_<pred> with columns c0..cn-1, described by the extensional
//     data dictionary relations edbrels/edbcols;
//   - rules (the intensional database) in source form in rulesource,
//     described by the intensional dictionary idbrels/idbcols, and in
//     compiled form in reachablepreds — the transitive closure of the
//     rules' predicate connection graph, which makes the time to
//     extract the rules relevant to a query depend only on how many
//     rules are extracted, not on the total number stored (the paper's
//     central rule-storage-structure claim, Test 1/Fig 7).
//
// Updates from the workspace maintain reachablepreds incrementally
// (§4.3): only the portion of the closure affected by the new rules is
// recomputed.
package stored

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"dkbms/internal/catalog"
	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/rel"
)

// System relation names.
const (
	TabRuleSource     = "rulesource"
	TabReachablePreds = "reachablepreds"
	TabIDBRels        = "idbrels"
	TabIDBCols        = "idbcols"
	TabEDBRels        = "edbrels"
	TabEDBCols        = "edbcols"
)

// Options configure the manager.
type Options struct {
	// NoCompiledRules disables the reachablepreds compiled storage
	// structure: rules are stored in source form only and relevant-rule
	// extraction degrades to iterative direct lookups (the paper's
	// "without compiled form rule storage" configuration, Fig 15).
	NoCompiledRules bool
	// NoIndexes skips the B+tree indexes on the system relations (the
	// index ablation underlying the Fig 7 flatness claim).
	NoIndexes bool
}

// Manager is the stored-D/KB manager bound to one database (or, via
// WithDB, to a resolver-bound view of one).
type Manager struct {
	d    *db.DB
	opts Options
	// nextRuleID is the next rulesource identifier. Written only on the
	// update path, which is serialized above this layer; read-only views
	// built by WithDB never touch it.
	nextRuleID int64

	// stats counts manager traffic for the experiment harness. The
	// counters are updated atomically — rule extraction and dictionary
	// reads happen on the compile path, which concurrent sessions share —
	// and the pointer is shared with every WithDB view so all traffic
	// lands in one place. Racing readers go through StatsSnapshot.
	stats *Stats
}

// Stats are cumulative counters.
type Stats struct {
	ExtractCalls int64
	// ExtractedRules counts rules returned by ExtractRelevant.
	ExtractedRules int64
	ReadDictCalls  int64
}

// StatsSnapshot returns the counters read with atomic loads.
func (m *Manager) StatsSnapshot() Stats {
	return Stats{
		ExtractCalls:   atomic.LoadInt64(&m.stats.ExtractCalls),
		ExtractedRules: atomic.LoadInt64(&m.stats.ExtractedRules),
		ReadDictCalls:  atomic.LoadInt64(&m.stats.ReadDictCalls),
	}
}

// WithDB returns a read-only view of the manager bound to d — normally
// a snapshot-bound view of the same database — for the compile path
// (ExtractRelevant, BaseTypes, DerivedTypes). The view shares the
// traffic counters with the original; the rule-id allocator stays
// behind (views never update).
func (m *Manager) WithDB(d *db.DB) *Manager {
	return &Manager{d: d, opts: m.opts, stats: m.stats}
}

// Open binds a manager to the database, creating the system relations
// on first use.
func Open(d *db.DB, opts Options) (*Manager, error) {
	m := &Manager{d: d, opts: opts, stats: &Stats{}}
	type tdef struct {
		name, ddl string
		indexes   []string
	}
	defs := []tdef{
		{TabRuleSource, "CREATE TABLE rulesource (headpredname CHAR, ruleid INTEGER, ruletext CHAR)",
			[]string{"CREATE INDEX rulesource_head ON rulesource (headpredname)"}},
		{TabReachablePreds, "CREATE TABLE reachablepreds (frompredname CHAR, topredname CHAR)",
			[]string{
				"CREATE INDEX reachable_from ON reachablepreds (frompredname)",
				"CREATE INDEX reachable_to ON reachablepreds (topredname)",
			}},
		{TabIDBRels, "CREATE TABLE idbrels (predname CHAR, arity INTEGER)",
			[]string{"CREATE INDEX idbrels_pred ON idbrels (predname)"}},
		{TabIDBCols, "CREATE TABLE idbcols (predname CHAR, colno INTEGER, coltype CHAR)",
			[]string{"CREATE INDEX idbcols_pred ON idbcols (predname)"}},
		{TabEDBRels, "CREATE TABLE edbrels (predname CHAR, arity INTEGER)",
			[]string{"CREATE INDEX edbrels_pred ON edbrels (predname)"}},
		{TabEDBCols, "CREATE TABLE edbcols (predname CHAR, colno INTEGER, coltype CHAR)",
			[]string{"CREATE INDEX edbcols_pred ON edbcols (predname)"}},
	}
	for _, def := range defs {
		if d.HasTable(def.name) {
			continue
		}
		if err := d.Exec(def.ddl); err != nil {
			return nil, err
		}
		if opts.NoIndexes {
			continue
		}
		for _, ix := range def.indexes {
			if err := d.Exec(ix); err != nil {
				return nil, err
			}
		}
	}
	n, err := d.QueryCount("SELECT COUNT(*) FROM rulesource")
	if err != nil {
		return nil, err
	}
	m.nextRuleID = n + 1
	return m, nil
}

// DB returns the underlying database.
func (m *Manager) DB() *db.DB { return m.d }

// --- Extensional database ---

// InsertFact stores one fact tuple, creating the predicate's relation
// and dictionary entries on first use.
func (m *Manager) InsertFact(pred string, tu rel.Tuple) error {
	return m.InsertFacts(pred, []rel.Tuple{tu})
}

// InsertFacts bulk-loads fact tuples for a predicate.
func (m *Manager) InsertFacts(pred string, tuples []rel.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	types := make([]rel.Type, len(tuples[0]))
	for i, v := range tuples[0] {
		types[i] = v.Kind
	}
	tb, err := m.ensureFactTable(pred, types)
	if err != nil {
		return err
	}
	for _, tu := range tuples {
		if _, err := tb.Insert(tu); err != nil {
			return err
		}
	}
	return nil
}

// NewFactFootprint lists the existing relations InsertFacts writes when
// it creates a predicate's relation: the extensional dictionary. A
// copy-on-write commit shadows them first.
var NewFactFootprint = []string{TabEDBRels, TabEDBCols}

// ensureFactTable creates (or fetches) the extensional relation of a
// predicate and its dictionary rows.
func (m *Manager) ensureFactTable(pred string, types []rel.Type) (*catalog.Table, error) {
	name := codegen.BaseTable(pred)
	if t := m.d.Catalog().Table(name); t != nil {
		if t.Schema.Len() != len(types) {
			return nil, fmt.Errorf("stored: predicate %s has arity %d, got %d", pred, t.Schema.Len(), len(types))
		}
		for i := range types {
			if t.Schema.Col(i).Type != types[i] {
				return nil, fmt.Errorf("stored: predicate %s column %d is %v, got %v",
					pred, i+1, t.Schema.Col(i).Type, types[i])
			}
		}
		return t, nil
	}
	var ddl strings.Builder
	fmt.Fprintf(&ddl, "CREATE TABLE %s (", name)
	for i, ty := range types {
		if i > 0 {
			ddl.WriteString(", ")
		}
		fmt.Fprintf(&ddl, "c%d %s", i, ty.String())
	}
	ddl.WriteByte(')')
	if err := m.d.Exec(ddl.String()); err != nil {
		return nil, err
	}
	// Dictionary entries (the extensional data dictionary the semantic
	// checker reads).
	if err := m.d.Exec(fmt.Sprintf("INSERT INTO edbrels VALUES ('%s', %d)", sqlEscape(pred), len(types))); err != nil {
		return nil, err
	}
	for i, ty := range types {
		if err := m.d.Exec(fmt.Sprintf("INSERT INTO edbcols VALUES ('%s', %d, '%s')",
			sqlEscape(pred), i, ty.String())); err != nil {
			return nil, err
		}
	}
	return m.d.Catalog().Table(name), nil
}

// CreateFactIndex builds an index on the given 0-based columns of a
// fact relation.
func (m *Manager) CreateFactIndex(pred string, cols []int) error {
	name := codegen.BaseTable(pred)
	t := m.d.Catalog().Table(name)
	if t == nil {
		return fmt.Errorf("stored: no facts for predicate %s", pred)
	}
	colNames := make([]string, len(cols))
	for i, c := range cols {
		if c < 0 || c >= t.Schema.Len() {
			return fmt.Errorf("stored: column %d out of range for %s", c, pred)
		}
		colNames[i] = fmt.Sprintf("c%d", c)
	}
	idxName := fmt.Sprintf("%s_ix_%s", name, strings.Join(colNames, "_"))
	if m.d.Catalog().Index(idxName) != nil {
		return nil // already indexed
	}
	_, err := m.d.Catalog().CreateIndex(idxName, name, colNames, false)
	return err
}

// FactCount returns the number of stored facts for a predicate.
func (m *Manager) FactCount(pred string) int {
	return m.d.TableRows(codegen.BaseTable(pred))
}

// BaseTypes reads the extensional data dictionary for the given
// predicates (the paper's t_readdict operation, Test 2).
func (m *Manager) BaseTypes(preds []string) (map[string][]rel.Type, error) {
	return m.readDict(TabEDBCols, preds)
}

// DerivedTypes reads the intensional data dictionary for the given
// predicates.
func (m *Manager) DerivedTypes(preds []string) (map[string][]rel.Type, error) {
	return m.readDict(TabIDBCols, preds)
}

// readDict reads the column types of preds from one of the two column
// dictionaries, a statement per predicate; predicates without entries
// are left out.
func (m *Manager) readDict(cols string, preds []string) (map[string][]rel.Type, error) {
	atomic.AddInt64(&m.stats.ReadDictCalls, 1)
	out := make(map[string][]rel.Type)
	for _, p := range preds {
		rows, err := m.d.Query(fmt.Sprintf(
			"SELECT colno, coltype FROM %s WHERE predname = '%s'", cols, sqlEscape(p)))
		if err != nil {
			return nil, err
		}
		if len(rows.Tuples) == 0 {
			continue
		}
		types := make([]rel.Type, len(rows.Tuples))
		for _, tu := range rows.Tuples {
			colno := int(tu[0].Int)
			ty, err := rel.ParseType(tu[1].Str)
			if err != nil {
				return nil, fmt.Errorf("stored: dictionary corruption for %s: %w", p, err)
			}
			if colno < 0 || colno >= len(types) {
				return nil, fmt.Errorf("stored: dictionary corruption for %s: column %d", p, colno)
			}
			types[colno] = ty
		}
		out[p] = types
	}
	return out, nil
}

// --- Intensional database: extraction ---

// ExtractRelevant returns the stored rules needed to solve the given
// predicates. With compiled rule storage this is a single indexed query
// joining reachablepreds with rulesource (paper §4.1); without it, only
// directly-defining rules are returned and the compiler iterates.
func (m *Manager) ExtractRelevant(preds []string) ([]dlog.Clause, error) {
	atomic.AddInt64(&m.stats.ExtractCalls, 1)
	if len(preds) == 0 {
		return nil, nil
	}
	var parts []string
	for _, p := range preds {
		e := sqlEscape(p)
		parts = append(parts, fmt.Sprintf(
			"SELECT ruleid, ruletext FROM rulesource WHERE headpredname = '%s'", e))
		if !m.opts.NoCompiledRules {
			parts = append(parts, fmt.Sprintf(
				"SELECT rs.ruleid, rs.ruletext FROM reachablepreds rp, rulesource rs "+
					"WHERE rp.frompredname = '%s' AND rs.headpredname = rp.topredname", e))
		}
	}
	rows, err := m.d.Query(strings.Join(parts, " UNION "))
	if err != nil {
		return nil, err
	}
	// Deterministic order by rule id.
	sort.Slice(rows.Tuples, func(i, j int) bool {
		return rows.Tuples[i][0].Int < rows.Tuples[j][0].Int
	})
	out := make([]dlog.Clause, 0, len(rows.Tuples))
	for _, tu := range rows.Tuples {
		c, err := dlog.ParseClause(tu[1].Str)
		if err != nil {
			return nil, fmt.Errorf("stored: corrupt rule %d: %w", tu[0].Int, err)
		}
		out = append(out, c)
	}
	atomic.AddInt64(&m.stats.ExtractedRules, int64(len(out)))
	return out, nil
}

// RuleCount returns the number of stored rules.
func (m *Manager) RuleCount() int { return m.d.TableRows(TabRuleSource) }

// ReachableEdges returns the number of compiled reachability edges.
func (m *Manager) ReachableEdges() int { return m.d.TableRows(TabReachablePreds) }

func sqlEscape(s string) string { return strings.ReplaceAll(s, "'", "''") }

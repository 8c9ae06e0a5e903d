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
//
// Like the paper's Stored D/KB Manager, a fixed embedded-SQL program,
// the manager's reads are statements prepared once with the predicate
// names as value parameters: Open prepares the dictionary and
// reachability reads, and the extraction over n predicates is prepared
// the first time a frontier of n is asked for and kept (up to memoWidth
// predicates, wider than any compile's frontier). Compiling a query
// parses no SQL.
package stored

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dkbms/internal/catalog"
	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
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
// WithDB, to a view of one).
type Manager struct {
	d    *db.DB
	opts Options
	// nextRuleID is the next rulesource identifier. Written only on the
	// update path, which is serialized above this layer; read-only views
	// built by WithDB never touch it.
	nextRuleID int64

	// stats counts manager traffic for the experiment harness. Rule
	// extraction and dictionary reads happen on the compile path, which
	// concurrent sessions share, so the pointer is shared with every
	// WithDB view and all traffic lands in one place.
	stats *counters

	// stmts are the read statements, prepared on the database Open was
	// given and shared with every WithDB view, which runs them on its
	// own database.
	stmts *statements
}

// statements are the manager's prepared reads. Each takes predicate
// names as value parameters.
type statements struct {
	d *db.DB // the database they are prepared on; views never prepare
	// compiled extraction also follows reachablepreds (!NoCompiledRules).
	compiled bool

	// edbCols and idbCols read one predicate's column types from a
	// column dictionary.
	edbCols, idbCols *db.Stmt
	// reachFrom reads the predicates one predicate reaches, reachTo the
	// predicates reaching it.
	reachFrom, reachTo *db.Stmt

	// extract[n-1] extracts the rules relevant to n predicates,
	// prepared on first use; compiles on concurrent views share it.
	// unreach deletes the rows of one predicate from reachablepreds,
	// prepared by the first Update: a manager that is only read holds
	// no write statement.
	mu      sync.Mutex
	extract [memoWidth]*db.Stmt
	unreach *db.Stmt
}

// memoWidth is the widest extraction statement the memo keeps; a wider
// one is prepared for its call. The widest frontier a compile asks for
// in the benchmark workloads and the dkbbench experiments is 20
// predicates (Table 4 at R_r = 20, Fig 10 at P_r = 20); an Update's
// run from 1 to thousands, each width seen about once. A statement
// holds about 1.7 KiB per predicate, so a memo of every width up to 32
// stays under 1 MiB.
const memoWidth = 32

// prepareStatements prepares the manager's fixed reads on d.
func prepareStatements(d *db.DB, opts Options) (*statements, error) {
	s := &statements{d: d, compiled: !opts.NoCompiledRules}
	for _, st := range []struct {
		to   **db.Stmt
		text string
	}{
		{&s.edbCols, "SELECT colno, coltype FROM edbcols WHERE predname = ?1"},
		{&s.idbCols, "SELECT colno, coltype FROM idbcols WHERE predname = ?1"},
		{&s.reachFrom, "SELECT topredname FROM reachablepreds WHERE frompredname = ?1"},
		{&s.reachTo, "SELECT frompredname FROM reachablepreds WHERE topredname = ?1"},
	} {
		var err error
		if *st.to, err = d.Prepare(st.text); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// extraction returns the statement extracting the rules relevant to n
// predicates, ?k standing for the k-th: for each, the rules defining it
// and, with compiled storage, the rules of every predicate it reaches,
// all in one UNION. Up to memoWidth predicates it is kept.
func (s *statements) extraction(n int) (*db.Stmt, error) {
	memo := n <= memoWidth
	if memo {
		s.mu.Lock()
		defer s.mu.Unlock()
		if st := s.extract[n-1]; st != nil {
			return st, nil
		}
	}
	var b strings.Builder
	for k := 1; k <= n; k++ {
		if k > 1 {
			b.WriteString(" UNION ")
		}
		v := "?" + strconv.Itoa(k)
		b.WriteString("SELECT ruleid, ruletext FROM rulesource WHERE headpredname = " + v)
		if s.compiled {
			b.WriteString(" UNION SELECT rs.ruleid, rs.ruletext FROM reachablepreds rp, rulesource rs " +
				"WHERE rp.frompredname = " + v + " AND rs.headpredname = rp.topredname")
		}
	}
	st, err := s.d.Prepare(b.String())
	if err == nil && memo {
		s.extract[n-1] = st
	}
	return st, err
}

// unreachStmt returns the statement deleting one predicate's
// reachablepreds rows, ?1 its name.
func (s *statements) unreachStmt() (*db.Stmt, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unreach == nil {
		st, err := s.d.Prepare("DELETE FROM reachablepreds WHERE frompredname = ?1")
		if err != nil {
			return nil, err
		}
		s.unreach = st
	}
	return s.unreach, nil
}

// counters are the live manager counters behind Stats; views share them
// and may run on concurrent sessions.
type counters struct {
	extractCalls, extractedRules, readDictCalls atomic.Int64
}

// Stats are cumulative counters, as read by StatsSnapshot.
type Stats struct {
	ExtractCalls int64
	// ExtractedRules counts rules returned by ExtractRelevant.
	ExtractedRules int64
	ReadDictCalls  int64
}

// StatsSnapshot returns the counters, safe to call while views run
// on other goroutines.
func (m *Manager) StatsSnapshot() Stats {
	return Stats{
		ExtractCalls:   m.stats.extractCalls.Load(),
		ExtractedRules: m.stats.extractedRules.Load(),
		ReadDictCalls:  m.stats.readDictCalls.Load(),
	}
}

// WithDB returns a read-only view of the manager bound to d — a view of
// the manager's database, normally a snapshot's (db.DB.View) — for the
// compile path (ExtractRelevant, BaseTypes, DerivedTypes).
// The view shares the traffic counters and the prepared statements with
// the original and runs the statements on d; the rule-id allocator
// stays behind (views never update).
func (m *Manager) WithDB(d *db.DB) *Manager {
	return &Manager{d: d, opts: m.opts, stats: m.stats, stmts: m.stmts}
}

// Open binds a manager to the database, creating the system relations
// on first use.
func Open(d *db.DB, opts Options) (*Manager, error) {
	m := &Manager{d: d, opts: opts, stats: new(counters)}
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
	if m.stmts, err = prepareStatements(d, opts); err != nil {
		return nil, err
	}
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

// ensureFactTable creates (or fetches, for a write) the extensional
// relation of a predicate and its dictionary rows.
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
		return m.d.Catalog().Writable(name)
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
	return m.readDict(m.stmts.edbCols, preds)
}

// DerivedTypes reads the intensional data dictionary for the given
// predicates.
func (m *Manager) DerivedTypes(preds []string) (map[string][]rel.Type, error) {
	return m.readDict(m.stmts.idbCols, preds)
}

// readDict reads the column types of preds with one of the two column
// dictionaries' statements, an execution per predicate, each streaming
// its rows into one state for the call; predicates without entries are
// left out. A predicate's n rows must number its columns 0..n-1, each
// once.
func (m *Manager) readDict(cols *db.Stmt, preds []string) (map[string][]rel.Type, error) {
	m.stats.readDictCalls.Add(1)
	out := make(map[string][]rel.Type)
	r := getTextRead(intChars)
	defer r.put()
	vals := make([]rel.Value, 1)
	for _, p := range preds {
		r.reset()
		vals[0] = rel.NewString(p)
		if err := cols.Scan(context.Background(), m.d, nil, vals, r.fn); err != nil {
			return nil, fmt.Errorf("stored: reading the dictionary for %s: %w", p, err)
		}
		if len(r.rows) == 0 {
			continue
		}
		types := make([]rel.Type, len(r.rows))
		for i, c := range r.rows {
			ty, err := rel.ParseType(r.text(i))
			if err != nil {
				return nil, fmt.Errorf("stored: dictionary corruption for %s: %w", p, err)
			}
			// ParseType returns no TypeUnknown, so a column already set
			// is one numbered twice.
			if c.id < 0 || c.id >= int64(len(types)) || types[c.id] != rel.TypeUnknown {
				return nil, fmt.Errorf("stored: dictionary corruption for %s: column %d", p, c.id)
			}
			types[c.id] = ty
		}
		out[p] = types
	}
	return out, nil
}

// Record schemas of the manager's streamed reads, by column types: a
// dictionary row (colno, coltype) and an extracted rule (ruleid,
// ruletext) are an INTEGER and a CHAR, a reachability row one CHAR.
var (
	intChars = rel.MustSchema(rel.Column{Name: "n", Type: rel.TypeInt}, rel.Column{Name: "s", Type: rel.TypeString})
	chars    = rel.MustSchema(rel.Column{Name: "s", Type: rel.TypeString})
)

// --- Intensional database: extraction ---

// ExtractRelevant returns the stored rules needed to solve the given
// predicates. With compiled rule storage this is a single indexed query
// joining reachablepreds with rulesource (paper §4.1); without it, only
// directly-defining rules are returned and the compiler iterates. It is
// one statement for up to sql.MaxParam predicates, one per that many
// beyond.
func (m *Manager) ExtractRelevant(preds []string) ([]dlog.Clause, error) {
	m.stats.extractCalls.Add(1)
	if len(preds) == 0 {
		return nil, nil
	}
	x := getTextRead(intChars)
	defer x.put()
	vals := make([]rel.Value, min(len(preds), sql.MaxParam))
	for rest := preds; len(rest) > 0; {
		chunk := rest[:min(len(rest), sql.MaxParam)]
		rest = rest[len(chunk):]
		st, err := m.stmts.extraction(len(chunk))
		if err != nil {
			return nil, err
		}
		for i, p := range chunk {
			vals[i] = rel.NewString(p)
		}
		if err := st.Scan(context.Background(), m.d, nil, vals[:len(chunk)], x.fn); err != nil {
			return nil, err
		}
	}
	// Deterministic order by rule id; a rule relevant to two chunks is
	// kept once.
	slices.SortFunc(x.rows, func(a, b textRow) int { return cmp.Compare(a.id, b.id) })
	out := make([]dlog.Clause, 0, len(x.rows))
	for i, r := range x.rows {
		if i > 0 && r.id == x.rows[i-1].id {
			continue
		}
		c, err := dlog.ParseClause(x.text(i))
		if err != nil {
			return nil, fmt.Errorf("stored: corrupt rule %d: %w", r.id, err)
		}
		out = append(out, c)
	}
	m.stats.extractedRules.Add(int64(len(out)))
	return out, nil
}

// textRead is the state of one call's streamed reads of records that
// end in a CHAR column — a dictionary row (colno, coltype), an
// extracted rule (ruleid, ruletext), a predicate name of
// reachablepreds: each record's leading INTEGER, when it has one, and
// its text, the texts back to back in one buffer that is handed over
// as their string (strings.Builder), not copied. States are recycled
// (textReads), so a compile's few reads allocate no state; a text
// returned stays valid, since a state lets go of its buffer when it is
// reset.
type textRead struct {
	schema *rel.Schema // intChars or chars
	spans  rel.Spans
	texts  strings.Builder
	rows   []textRow
	// fn is row, the consumer a Scan is given, made once per state.
	fn func(rec []byte) error
}

var textReads = sync.Pool{New: func() any {
	r := new(textRead)
	r.fn = r.row
	return r
}}

// getTextRead returns an empty state for records of schema.
func getTextRead(schema *rel.Schema) *textRead {
	r := textReads.Get().(*textRead)
	r.schema = schema
	return r
}

// put empties r, letting go of its texts and of the record it read
// last, and recycles it.
func (r *textRead) put() {
	r.reset()
	r.spans.Clear()
	textReads.Put(r)
}

// textRow is one record read: its id and where its text is.
type textRow struct {
	id         int64
	start, end int
}

// row reads one record.
func (r *textRead) row(rec []byte) error {
	if err := r.spans.Read(rec, r.schema); err != nil {
		return fmt.Errorf("stored: corrupt system relation row: %w", err)
	}
	text := r.schema.Len() - 1
	var id int64
	if text > 0 {
		id = r.spans.Int(0)
	}
	start := r.texts.Len()
	r.texts.Write(r.spans.Chars(text))
	r.rows = append(r.rows, textRow{id, start, r.texts.Len()})
	return nil
}

// text returns the text of rows[i].
func (r *textRead) text(i int) string {
	return r.texts.String()[r.rows[i].start:r.rows[i].end]
}

// reset forgets the records read, leaving the texts already returned
// as they are.
func (r *textRead) reset() { r.texts.Reset(); r.rows = r.rows[:0] }

// RuleCount returns the number of stored rules.
func (m *Manager) RuleCount() int { return m.d.TableRows(TabRuleSource) }

// ReachableEdges returns the number of compiled reachability edges.
func (m *Manager) ReachableEdges() int { return m.d.TableRows(TabReachablePreds) }

func sqlEscape(s string) string { return strings.ReplaceAll(s, "'", "''") }

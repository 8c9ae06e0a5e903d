// Package plan turns parsed SQL SELECT statements, and the WHERE clause
// of DELETE, into physical operator trees. The planner is the classic
// textbook pipeline the paper's commercial DBMS would run, in the two
// halves a precompiled embedded statement has. Analyze runs once per
// statement and settles what follows from the schemas alone:
//
//   - name resolution against the FROM list, whose positions are named
//     tables or table parameters with declared schemas;
//   - predicate analysis: type the WHERE clause — a value parameter ?n
//     takes the type of the column it is compared with — and split it
//     into per-table conjuncts (pushed below joins), equijoin conjuncts
//     (the edges of the join graph) and residual predicates (applied
//     once their tables are joined);
//   - the projection and its output schema.
//
// Every execution then decides, over the tables standing at the FROM
// positions then and the values bound to ?1..?n, what follows from
// their state:
//
//   - access-path selection: a table with equality-on-literal conjuncts
//     (column = ?n among them, with its bound value) matching a B+tree
//     index prefix is read through an IndexScan, everything else through
//     a SeqScan;
//   - cost-based left-deep join ordering (order.go): every start table
//     is extended by the cheapest next join, and the cheapest complete
//     order wins, each step with its join method.
//
// and constructs the operators, predicates and projection bound to the
// column layout the order produced. A value parameter is bound as an
// exec.Param reading the tree's own copy of the execution's values,
// never the caller's slice. Deciding allocates nothing, so an execution
// whose decisions — join order, access paths, join methods — are those
// of the statement's last execution does not construct:
// (*Prepared).Acquire re-binds the operator tree that execution handed
// back to the new tables, indexes, estimates and values, and the tree
// equals the one (*Analyzed).Build would construct. A Prepared keeps
// one tree for all its callers, and Shed empties it of its tables,
// values and working memory between the runs that use it: the
// operators and decisions stay for the next execution to re-bind.
//
// The cost of a join is the rows it must touch, and the join method
// falls out of the same cost (P is the running prefix, touch(T) the rows
// T's access path reads):
//
//	method      cost                  estimate source
//	index join  |P| × fan-out         B+tree entries ÷ distinct keys
//	hash join   touch(T) + |P|        Table.Rows; exact posting count
//	                                  under a literal key
//	cross       touch(T) + |P| × |T|  same
//
// So a rule statement is analyzed once per database and every LFP round
// of a run is ordered against the current delta cardinalities, and
// constructed again only in the rounds where that changes a decision.
// BuildSelect is Analyze followed by Build: there is one planner path.
package plan

import (
	"fmt"
	"slices"
	"sync/atomic"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// TableSource resolves FROM-clause names to physical tables. The live
// catalog implements it directly; a db.DB view of a snapshot resolves
// stored tables to the snapshot's frozen versions instead, which is how
// the planner binds a whole query to one consistent engine state.
type TableSource interface {
	Table(name string) *catalog.Table
}

// RecordingSource is a TableSource that records what an execution reads
// of the published table versions it resolves to: every scan and index
// join over a frozen version (catalog.Table.Gen > 0) is bound to Reads'
// recorder, a nil one recording nothing.
type RecordingSource interface {
	TableSource
	Reads() *exec.Reads
}

// Analyzed is a (possibly compound) SELECT with everything settled that
// depends only on the schemas of its tables: names resolved, predicates
// typed and classified, the join graph's edges, the projection and its
// output schema. It is immutable, so one Analyzed serves any number of
// concurrent Builds and of Prepared handles.
type Analyzed struct {
	blocks []block
	// setOps[i] combines the blocks up to i with block i+1,
	// left-associated.
	setOps []exec.SetOpKind
	params int
	// values[n-1] is the type of value parameter ?n.
	values []rel.Type
}

// Prepared is an Analyzed with the operator tree kept between its
// executions, which one execution at a time takes under an atomic flag
// (Acquire); an execution that finds it held plans a tree of its own,
// which is not kept. Build, Acquire and Shed are safe for concurrent
// use.
type Prepared struct {
	*Analyzed

	// tree is the operator tree kept between executions; busy is set
	// while one holds it.
	busy atomic.Bool
	tree Tree
}

// Tree is the operator tree of one execution of an Analyzed, with the
// decisions it was constructed from and the scratch they are made in.
type Tree struct {
	// Root is the statement's operator tree.
	Root exec.Operator

	blocks []blockTree
	// vals is the tree's own copy of the values bound to ?1..?n, which
	// Root's exec.Params read: each execution overwrites it in place.
	vals []rel.Value
}

// blockTree is one block's part of a Tree: the operators constructed
// for it, and the decisions they were constructed from with the scratch
// those are made in, which is the scratch Build needs anyway. A
// single-table block's scratch is part of the struct.
type blockTree struct {
	root exec.Operator
	// tabs are the FROM positions' tables and per-table decisions.
	tabs []tableInfo
	// ints holds, n = len(tabs) each: the join order decided, the order
	// root was constructed with, order's search scratch, and
	// construct's two column maps.
	ints   []int
	joined []bool

	tab1    [1]tableInfo
	ints1   [5]int
	joined1 [1]bool
}

// order is the join order decided; built the one root was constructed
// with.
func (bt *blockTree) order() []int { return bt.ints[:len(bt.tabs)] }
func (bt *blockTree) built() []int { n := len(bt.tabs); return bt.ints[n : 2*n] }

// block is one SELECT block of an Analyzed.
type block struct {
	from []from
	// joins are the cross-table equalities of the WHERE clause;
	// residuals its other conjuncts over more than one table.
	joins     []joinPred
	residuals []residual

	countStar bool
	// proj is the select list (nil: the input already has the shape —
	// '*' over one table) and out its schema.
	proj     []symScalar
	out      *rel.Schema
	distinct bool
}

// from is one FROM position: a parameter (param > 0) or a named table,
// with the schema the block was prepared against.
type from struct {
	name   string
	param  int
	schema *rel.Schema
	// preds are the conjuncts over this table alone, eqLit the column =
	// literal (or value parameter) ones among them.
	preds []symPred
	eqLit []litEq
}

// BindError reports a table that cannot stand at a FROM position of a
// prepared statement: it does not exist, or its schema is not the one
// the statement was prepared against.
type BindError struct {
	// Ref is the position as written: a table name or $n.
	Ref string
	// Want is the prepared schema; Got the bound table's, nil when there
	// is no table.
	Want, Got *rel.Schema
}

func (e *BindError) Error() string {
	if e.Got == nil {
		return fmt.Sprintf("plan: no table for %s", e.Ref)
	}
	return fmt.Sprintf("plan: table bound to %s has schema %v, statement prepared for %v", e.Ref, e.Got, e.Want)
}

// BuildSelect plans a (possibly compound) SELECT against the source. It
// binds no parameters: a statement with any only prepares.
func BuildSelect(cat TableSource, s *sql.Select) (exec.Operator, error) {
	p, err := Analyze(cat, s, nil)
	if err != nil {
		return nil, err
	}
	return p.Build(cat, nil, nil)
}

// Prepare is Analyze with a tree kept for Acquire.
func Prepare(cat TableSource, s *sql.Select, params []*rel.Schema) (*Prepared, error) {
	a, err := Analyze(cat, s, params)
	if err != nil {
		return nil, err
	}
	return &Prepared{Analyzed: a}, nil
}

// Analyze resolves and analyzes a SELECT once, for any number of
// Builds. params[n-1] is the schema declared for table parameter $n;
// named tables take their schema from cat. Value parameters are typed by
// the columns they are compared with: one compared with no column, typed
// two ways, or missing from ?1..?n is an error.
//
// UNION, EXCEPT and INTERSECT deduplicate their inputs themselves, so a
// SELECT DISTINCT feeding one gets no Distinct operator of its own.
func Analyze(cat TableSource, s *sql.Select, params []*rel.Schema) (*Analyzed, error) {
	n := 1
	for cur := s; cur.SetOp != sql.SetNone; cur = cur.Next {
		n++
	}
	p := &Analyzed{blocks: make([]block, n), params: len(params)}
	if n > 1 {
		p.setOps = make([]exec.SetOpKind, n-1)
	}
	keepDistinct := func(op sql.SetOp) bool { return op == sql.SetNone || op == sql.SetUnionAll }
	distinct := keepDistinct(s.SetOp)
	for i, cur := 0, s; ; i, cur = i+1, cur.Next {
		if err := p.blocks[i].prepare(cat, cur, params, &p.values, distinct); err != nil {
			return nil, err
		}
		switch cur.SetOp {
		case sql.SetNone:
			for n, ty := range p.values {
				if ty == rel.TypeUnknown {
					return nil, fmt.Errorf("plan: value parameter ?%d is not compared with a column", n+1)
				}
			}
			return p, nil
		case sql.SetUnion:
			p.setOps[i] = exec.OpUnion
		case sql.SetUnionAll:
			p.setOps[i] = exec.OpUnionAll
		case sql.SetExcept:
			p.setOps[i] = exec.OpExcept
		case sql.SetIntersect:
			p.setOps[i] = exec.OpIntersect
		}
		distinct = keepDistinct(cur.SetOp)
	}
}

// NamesTables reports whether a FROM position of p is a named table
// rather than a parameter.
func (p *Analyzed) NamesTables() bool {
	for i := range p.blocks {
		for _, f := range p.blocks[i].from {
			if f.param == 0 {
				return true
			}
		}
	}
	return false
}

// Build plans one execution against the tables' current state: access
// paths, join order and methods follow the cardinalities of this
// moment. args[n-1] is the table bound to parameter $n; named tables
// are resolved through cat. A table that is missing or whose schema is
// not the prepared one is a *BindError. vals[n-1] is the value bound to
// ?n, of the type Analyze gave it: a literal in every predicate it
// stands in and, under an equality, in the index probe key. The tree
// reads its own copy of vals.
func (p *Analyzed) Build(cat TableSource, args []*catalog.Table, vals []rel.Value) (exec.Operator, error) {
	var t Tree
	if _, err := p.plan(&t, cat, args, vals); err != nil {
		return nil, err
	}
	return t.Root, nil
}

// Acquire plans one execution as Build does, into the tree p keeps
// between executions. When this execution decides exactly as the
// tree's last one did — join order, access paths, join methods — the
// tree is not constructed again but re-bound to this execution's
// tables, indexes, estimates and values, and reused reports it. The
// caller drains t.Root and then hands t back with Release, also after
// an error; what its reader keeps of the records it copies or decodes
// first (a db.Stmt.Scan sink, db.Stmt.Query), since they alias the
// tree's buffers and pinned pages (exec.Operator). An execution that
// finds the kept tree held by a concurrent one plans a tree of its own,
// which is not kept.
func (p *Prepared) Acquire(cat TableSource, args []*catalog.Table, vals []rel.Value) (t *Tree, reused bool, err error) {
	t = &p.tree
	if !p.busy.CompareAndSwap(false, true) {
		t = new(Tree)
	}
	if reused, err = p.plan(t, cat, args, vals); err != nil {
		p.Release(t)
		return nil, false, err
	}
	return t, reused, nil
}

// Release hands back a tree Acquire returned, its operators closed, for
// p's next execution to re-bind. A nil t is ignored.
func (p *Prepared) Release(t *Tree) {
	if t == &p.tree {
		p.busy.Store(false)
	}
}

// Kept reports whether t is p's kept tree: what a caller keeps beside
// that tree is the execution's own while it holds the tree.
func (p *Prepared) Kept(t *Tree) bool { return t == &p.tree }

// Shed empties p's kept tree: its operators let go of their working
// memory (exec.Shed), and its operators and scratch of the tables,
// indexes, probe keys and values they were bound to. A tree held by an
// execution is left to it. p keeps working: its next execution
// re-binds the shed tree when it decides as the tree's last execution
// did.
func (p *Prepared) Shed() {
	if p.busy.CompareAndSwap(false, true) {
		p.tree.shed()
		p.busy.Store(false)
	}
}

// shed empties t: see Shed.
func (t *Tree) shed() {
	if t.Root != nil {
		exec.Shed(t.Root)
	}
	for i := range t.blocks {
		for j := range t.blocks[i].tabs {
			tab := &t.blocks[i].tabs[j]
			tab.t, tab.reads, tab.scanIndex, tab.scanKey, tab.via.index = nil, nil, nil, tab.scanKey[:0], nil
		}
	}
	clear(t.vals)
}

// scratch sizes t's per-block scratch to the statement's FROM lists
// and its value array to the statement's value parameters.
func (p *Analyzed) scratch(t *Tree) {
	if len(p.values) > 0 {
		t.vals = make([]rel.Value, len(p.values))
	}
	t.blocks = make([]blockTree, len(p.blocks))
	for i := range t.blocks {
		bt := &t.blocks[i]
		if n := len(p.blocks[i].from); n == 1 {
			bt.tabs, bt.ints, bt.joined = bt.tab1[:], bt.ints1[:], bt.joined1[:]
		} else {
			bt.tabs, bt.ints, bt.joined = make([]tableInfo, n), make([]int, 5*n), make([]bool, n)
		}
	}
}

// plan settles one execution in t. vals is copied into t's own value
// array, which t's operators read. Every block decides; when t.Root was
// constructed from the same decisions, its operators are re-bound and
// reused is true, otherwise t.Root is constructed anew.
func (p *Analyzed) plan(t *Tree, cat TableSource, args []*catalog.Table, vals []rel.Value) (reused bool, err error) {
	if len(args) != p.params {
		return false, fmt.Errorf("plan: statement takes %d table parameters, got %d", p.params, len(args))
	}
	if len(vals) != len(p.values) {
		return false, fmt.Errorf("plan: statement takes %d value parameters, got %d", len(p.values), len(vals))
	}
	for i, v := range vals {
		if v.Kind != p.values[i] {
			return false, fmt.Errorf("plan: value parameter ?%d is %v, bound to %v", i+1, p.values[i], v.Kind)
		}
	}
	if t.blocks == nil {
		p.scratch(t)
	}
	copy(t.vals, vals)
	vals = t.vals
	var reads *exec.Reads
	if rs, ok := cat.(RecordingSource); ok {
		reads = rs.Reads()
	}
	same := t.Root != nil
	for i := range p.blocks {
		bt := &t.blocks[i]
		if err := p.blocks[i].decide(bt, cat, args, vals, reads); err != nil {
			return false, err
		}
		same = same && slices.Equal(bt.order(), bt.built())
	}
	for i := range t.blocks {
		bt := &t.blocks[i]
		same = same && bt.rebind(bt.root, len(bt.tabs)-1)
	}
	if same {
		return true, nil
	}

	t.Root = nil
	for i := range p.blocks {
		bt := &t.blocks[i]
		if bt.root, err = p.blocks[i].construct(bt, vals); err != nil {
			return false, err
		}
		copy(bt.built(), bt.order())
	}
	root := t.blocks[0].root
	for i, kind := range p.setOps {
		root = &exec.SetOpExec{Kind: kind, Left: root, Right: t.blocks[i+1].root}
	}
	t.Root = root
	return false, nil
}

// colID names a column symbolically: table position in FROM, ordinal in
// that table's schema. Predicates are analyzed symbolically and bound to
// physical ordinals only when attached to an operator.
type colID struct {
	table int
	col   int
}

// symScalar is a column, literal or value-parameter leaf; param is n
// for ?n, else 0.
type symScalar struct {
	isCol bool
	col   colID
	ty    rel.Type
	val   rel.Value
	param int
}

// value is a non-column leaf's value in one execution.
func (s symScalar) value(vals []rel.Value) rel.Value {
	if s.param > 0 {
		return vals[s.param-1]
	}
	return s.val
}

// symPred mirrors the sql predicate tree with resolved leaves. tables
// marks, by FROM position, the tables the predicate mentions.
type symPred interface{ tables(set []bool) }

type symCmp struct {
	op          sql.CmpOp
	left, right symScalar
}

type symAnd struct{ left, right symPred }
type symOr struct{ left, right symPred }
type symNot struct{ inner symPred }

func (c symCmp) tables(set []bool) {
	if c.left.isCol {
		set[c.left.col.table] = true
	}
	if c.right.isCol {
		set[c.right.col.table] = true
	}
}
func (a symAnd) tables(set []bool) { a.left.tables(set); a.right.tables(set) }
func (o symOr) tables(set []bool)  { o.left.tables(set); o.right.tables(set) }
func (n symNot) tables(set []bool) { n.inner.tables(set) }

// scope resolves names while a block is prepared. values is the
// statement's value-parameter types, shared by its blocks.
type scope struct {
	aliases []string
	schemas []*rel.Schema
	values  *[]rel.Type
}

func (sc *scope) resolve(c sql.ColRef) (colID, rel.Type, error) {
	if c.Table != "" {
		for i, a := range sc.aliases {
			if a == c.Table {
				o := sc.schemas[i].Ordinal(c.Column)
				if o < 0 {
					return colID{}, 0, fmt.Errorf("plan: no column %s in %s", c.Column, c.Table)
				}
				return colID{table: i, col: o}, sc.schemas[i].Col(o).Type, nil
			}
		}
		return colID{}, 0, fmt.Errorf("plan: unknown table alias %s", c.Table)
	}
	found := -1
	ord := -1
	for i, sch := range sc.schemas {
		if o := sch.Ordinal(c.Column); o >= 0 {
			if found >= 0 {
				return colID{}, 0, fmt.Errorf("plan: ambiguous column %s", c.Column)
			}
			found, ord = i, o
		}
	}
	if found < 0 {
		return colID{}, 0, fmt.Errorf("plan: unknown column %s", c.Column)
	}
	return colID{table: found, col: ord}, sc.schemas[found].Col(ord).Type, nil
}

func (sc *scope) scalar(e sql.Expr) (symScalar, error) {
	switch v := e.(type) {
	case sql.ColRef:
		id, ty, err := sc.resolve(v)
		if err != nil {
			return symScalar{}, err
		}
		return symScalar{isCol: true, col: id, ty: ty}, nil
	case sql.Literal:
		return symScalar{val: v.Value, ty: v.Value.Kind}, nil
	case sql.ValueParam:
		return symScalar{param: v.N}, nil
	default:
		return symScalar{}, fmt.Errorf("plan: unsupported scalar %T", e)
	}
}

// typeParam gives the value parameter of a comparison the type of the
// column on the other side.
func (sc *scope) typeParam(param, other *symScalar) error {
	if !other.isCol {
		return fmt.Errorf("plan: value parameter ?%d is not compared with a column", param.param)
	}
	vals := *sc.values
	for len(vals) < param.param {
		vals = append(vals, rel.TypeUnknown)
	}
	*sc.values = vals
	switch ty := vals[param.param-1]; ty {
	case rel.TypeUnknown:
		vals[param.param-1] = other.ty
	case other.ty:
	default:
		return fmt.Errorf("plan: value parameter ?%d compared with %v and with %v", param.param, ty, other.ty)
	}
	param.ty = other.ty
	return nil
}

func (sc *scope) pred(e sql.Expr) (symPred, error) {
	switch v := e.(type) {
	case sql.Compare:
		l, err := sc.scalar(v.Left)
		if err != nil {
			return nil, err
		}
		r, err := sc.scalar(v.Right)
		if err != nil {
			return nil, err
		}
		if l.param > 0 {
			err = sc.typeParam(&l, &r)
		} else if r.param > 0 {
			err = sc.typeParam(&r, &l)
		}
		if err != nil {
			return nil, err
		}
		if l.ty != r.ty {
			return nil, fmt.Errorf("plan: type mismatch in comparison: %v vs %v", l.ty, r.ty)
		}
		return symCmp{op: v.Op, left: l, right: r}, nil
	case sql.And:
		l, err := sc.pred(v.Left)
		if err != nil {
			return nil, err
		}
		r, err := sc.pred(v.Right)
		if err != nil {
			return nil, err
		}
		return symAnd{left: l, right: r}, nil
	case sql.Or:
		l, err := sc.pred(v.Left)
		if err != nil {
			return nil, err
		}
		r, err := sc.pred(v.Right)
		if err != nil {
			return nil, err
		}
		return symOr{left: l, right: r}, nil
	case sql.Not:
		in, err := sc.pred(v.Inner)
		if err != nil {
			return nil, err
		}
		return symNot{inner: in}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported predicate %T", e)
	}
}

// splitConjuncts flattens top-level ANDs.
func splitConjuncts(p symPred) []symPred {
	if a, ok := p.(symAnd); ok {
		return append(splitConjuncts(a.left), splitConjuncts(a.right)...)
	}
	return []symPred{p}
}

// colMap tracks where each FROM table's columns currently live in the
// plan's output tuple: every operator emits whole tables side by side,
// so one base offset per table (-1 until the table is attached) places
// every column.
type colMap []int

func (m colMap) ord(c colID) (int, bool) {
	if m[c.table] < 0 {
		return 0, false
	}
	return m[c.table] + c.col, true
}

// bind converts a symbolic predicate to a physical one via the map,
// vals standing in for the value parameters.
func bind(p symPred, m colMap, vals []rel.Value) (exec.Pred, error) {
	switch v := p.(type) {
	case symCmp:
		l, err := bindScalar(v.left, m, vals)
		if err != nil {
			return nil, err
		}
		r, err := bindScalar(v.right, m, vals)
		if err != nil {
			return nil, err
		}
		return exec.Cmp{Op: v.op, Left: l, Right: r}, nil
	case symAnd:
		l, err := bind(v.left, m, vals)
		if err != nil {
			return nil, err
		}
		r, err := bind(v.right, m, vals)
		if err != nil {
			return nil, err
		}
		return exec.AndP{Preds: []exec.Pred{l, r}}, nil
	case symOr:
		l, err := bind(v.left, m, vals)
		if err != nil {
			return nil, err
		}
		r, err := bind(v.right, m, vals)
		if err != nil {
			return nil, err
		}
		return exec.OrP{Left: l, Right: r}, nil
	case symNot:
		in, err := bind(v.inner, m, vals)
		if err != nil {
			return nil, err
		}
		return exec.NotP{Inner: in}, nil
	default:
		return nil, fmt.Errorf("plan: unknown symbolic predicate %T", p)
	}
}

// bindAll binds a conjunction, appending to preds.
func bindAll(preds []exec.Pred, ps []symPred, m colMap, vals []rel.Value) ([]exec.Pred, error) {
	for _, p := range ps {
		bp, err := bind(p, m, vals)
		if err != nil {
			return nil, err
		}
		preds = append(preds, bp)
	}
	return preds, nil
}

// bindScalar binds a leaf: a column to its ordinal under m, a literal
// to an exec.Const, and ?n to an exec.Param reading vals[n-1], the
// tree's own array.
func bindScalar(s symScalar, m colMap, vals []rel.Value) (exec.Scalar, error) {
	switch {
	case s.param > 0:
		return exec.Param{Val: &vals[s.param-1]}, nil
	case !s.isCol:
		return exec.Const{Val: s.val}, nil
	}
	ord, ok := m.ord(s.col)
	if !ok {
		return nil, fmt.Errorf("plan: column %v not available at this point in the plan", s.col)
	}
	return exec.Col{Ord: ord, Ty: s.ty}, nil
}

// equijoin detects a cross-table equality comparison.
func equijoin(p symPred) (l, r colID, ok bool) {
	c, isCmp := p.(symCmp)
	if !isCmp || c.op != sql.CmpEq || !c.left.isCol || !c.right.isCol {
		return colID{}, colID{}, false
	}
	if c.left.col.table == c.right.col.table {
		return colID{}, colID{}, false
	}
	return c.left.col, c.right.col, true
}

// residual is a multi-table conjunct that is not an equijoin; it is
// applied as a filter once the last of its tables is attached.
type residual struct {
	pred   symPred
	tables []bool
}

// prepare analyzes one SELECT block, typing the value parameters it
// compares into values; distinct says whether its DISTINCT, if any,
// needs an operator.
func (b *block) prepare(cat TableSource, s *sql.Select, params []*rel.Schema, values *[]rel.Type, distinct bool) error {
	if len(s.From) == 0 {
		return fmt.Errorf("plan: empty FROM")
	}
	n := len(s.From)
	b.from = make([]from, n)
	sc := &scope{aliases: make([]string, 0, n), schemas: make([]*rel.Schema, 0, n), values: values}
	for i, tr := range s.From {
		f := from{name: tr.Table, param: tr.Param}
		switch {
		case tr.Param > len(params) || tr.Param > 0 && params[tr.Param-1] == nil:
			return fmt.Errorf("plan: no schema declared for table parameter $%d", tr.Param)
		case tr.Param > 0:
			f.schema = params[tr.Param-1]
		default:
			t := cat.Table(tr.Table)
			if t == nil {
				return fmt.Errorf("plan: no table %s", tr.Table)
			}
			f.schema = t.Schema
		}
		for _, a := range sc.aliases {
			if a == tr.Alias {
				return fmt.Errorf("plan: duplicate alias %s", tr.Alias)
			}
		}
		sc.aliases = append(sc.aliases, tr.Alias)
		sc.schemas = append(sc.schemas, f.schema)
		b.from[i] = f
	}

	// Classify predicates: single-table conjuncts are pushed into the
	// table's access path, cross-table equalities are the join graph's
	// edges, everything else waits for its tables.
	if s.Where != nil {
		p, err := sc.pred(s.Where)
		if err != nil {
			return err
		}
		for _, conj := range splitConjuncts(p) {
			set := make([]bool, n)
			conj.tables(set)
			only, count := 0, 0
			for ti, in := range set {
				if in {
					only = ti
					count++
				}
			}
			if count <= 1 {
				b.from[only].preds = append(b.from[only].preds, conj)
			} else if l, r, ok := equijoin(conj); ok {
				b.joins = append(b.joins, joinPred{l, r})
			} else {
				b.residuals = append(b.residuals, residual{conj, set})
			}
		}
		for ti := range b.from {
			b.from[ti].eqLit = literalEqualities(b.from[ti].preds)
		}
	}

	b.countStar = s.CountStar
	b.distinct = s.Distinct && distinct
	if s.CountStar {
		return nil
	}
	var err error
	b.proj, b.out, err = projection(sc, s)
	return err
}

// table resolves the position to the physical table of this execution.
func (f *from) table(cat TableSource, args []*catalog.Table) (*catalog.Table, error) {
	var t *catalog.Table
	if f.param > 0 {
		t = args[f.param-1]
	} else {
		t = cat.Table(f.name)
	}
	if t != nil && (t.Schema == f.schema || t.Schema.Equal(f.schema)) {
		return t, nil
	}
	e := &BindError{Ref: f.name, Want: f.schema}
	if f.param > 0 {
		e.Ref = fmt.Sprintf("$%d", f.param)
	}
	if t != nil {
		e.Got = t.Schema
	}
	return nil, e
}

// decide settles one execution of the block in bt: the table at each
// FROM position, its access path and estimates, the join order, and the
// step attaching each table after the first — each re-costed against
// the running prefix to pick its join method. A published table's
// operators will record their reads in reads. It allocates nothing but
// a *BindError, or a probe key longer than the last execution's.
func (b *block) decide(bt *blockTree, cat TableSource, args []*catalog.Table, vals []rel.Value, reads *exec.Reads) error {
	g := joinGraph{tabs: bt.tabs, joins: b.joins}
	order := bt.order()
	for ti := range b.from {
		f := &b.from[ti]
		t, err := f.table(cat, args)
		if err != nil {
			return err
		}
		g.tabs[ti].t, g.tabs[ti].reads = t, nil
		if reads != nil && t.Gen() != 0 {
			g.tabs[ti].reads = reads
		}
		g.tabs[ti].analyze(f.eqLit, vals)
	}
	if n := len(b.from); n > 1 { // a single table skips the search: order is [0]
		g.order(order, bt.ints[2*n:3*n:3*n], bt.joined)
	}
	clear(bt.joined)
	rows := 0.0
	for i, ti := range order {
		tab := &g.tabs[ti]
		if i == 0 {
			tab.via, rows = step{}, tab.est
		} else {
			tab.via = g.attach(bt.joined, rows, ti)
			tab.via.buildLeft = rows < tab.est
			rows = tab.via.rows
		}
		bt.joined[ti] = true
	}
	return nil
}

// rebind points the operators of a tree constructed from the decisions
// in bt — op being the part that attaches the tables up to order
// position i — at this execution's tables, indexes, probe keys and
// estimates. It reports false when an operator is not the one bt's
// decisions construct: another access path or join method, or an index
// keyed on other columns than the one it was constructed through
// (tableInfo.built). The order was compared by the caller.
func (bt *blockTree) rebind(op exec.Operator, i int) bool {
	if i < 0 {
		return false
	}
	tab := &bt.tabs[bt.order()[i]]
	st := &tab.via
	switch o := op.(type) {
	case *exec.Project:
		return bt.rebind(o.Input, i)
	case *exec.Distinct:
		return bt.rebind(o.Input, i)
	case *exec.CountStar:
		return bt.rebind(o.Input, i)
	case *exec.Filter: // a table's predicates, or residuals over the prefix
		return bt.rebind(o.Input, i)
	case *exec.SeqScan:
		if tab.scanIndex != nil {
			return false
		}
		o.Table, o.Est, o.Reads = tab.t, tab.touch, tab.reads
		return true
	case *exec.IndexScan:
		if tab.scanIndex == nil || !slices.Equal(tab.built, tab.scanIndex.Ords[:tab.scanCols]) {
			return false
		}
		o.Table, o.Index, o.Key, o.Cols, o.Est, o.Reads = tab.t, tab.scanIndex, tab.scanKey, tab.scanCols, tab.touch, tab.reads
		return true
	case *exec.IndexNLJoin:
		if st.index == nil || len(o.LeftOrds) != st.keyLen || !slices.Equal(tab.built, st.index.Ords[:st.keyLen]) {
			return false
		}
		o.Right, o.Index, o.Est, o.Reads = tab.t, st.index, st.rows, tab.reads
		return bt.rebind(o.Left, i-1)
	case *exec.HashJoin:
		if st.index != nil || st.cross || o.BuildLeft != st.buildLeft {
			return false
		}
		o.Est = st.rows
		return bt.rebind(o.Left, i-1) && bt.rebind(o.Right, i)
	case *exec.NLJoin:
		if st.index != nil || !st.cross {
			return false
		}
		o.Est = st.rows
		return bt.rebind(o.Left, i-1) && bt.rebind(o.Right, i)
	}
	return false
}

// construct builds the block's operators from the decisions in bt, its
// value parameters reading vals, the tree's own array.
func (b *block) construct(bt *blockTree, vals []rel.Value) (exec.Operator, error) {
	n := len(b.from)
	// m places the attached tables in cur's output; local is the same
	// map for one table alone, binding its own predicates below the
	// joins.
	m, local := colMap(bt.ints[3*n:4*n]), colMap(bt.ints[4*n:])
	for ti := range m {
		m[ti], local[ti] = -1, -1
	}
	access := func(ti int) (exec.Operator, error) {
		tab, preds := &bt.tabs[ti], b.from[ti].preds
		var op exec.Operator
		if tab.scanIndex != nil {
			op = &exec.IndexScan{Table: tab.t, Index: tab.scanIndex, Key: tab.scanKey, Cols: tab.scanCols, Est: tab.touch, Reads: tab.reads}
			tab.built = tab.scanIndex.Ords[:tab.scanCols]
		} else {
			op = &exec.SeqScan{Table: tab.t, Est: tab.touch, Reads: tab.reads}
			tab.built = nil
		}
		if len(preds) == 0 {
			return op, nil
		}
		// Attach all table predicates (the index may cover only some;
		// re-checking the covered equalities is cheap and keeps the
		// planner simple and the executor obviously correct).
		local[ti] = 0
		bound, err := bindAll(nil, preds, local, vals)
		local[ti] = -1
		if err != nil {
			return nil, err
		}
		return &exec.Filter{Input: op, Pred: exec.AndOf(bound)}, nil
	}

	// Attach the tables in the order decided, each by its step's method.
	var cur exec.Operator
	joined := bt.joined
	clear(joined)
	width := 0
	for i, ti := range bt.order() {
		tab := &bt.tabs[ti]
		m[ti] = width
		if i == 0 {
			op, err := access(ti)
			if err != nil {
				return nil, err
			}
			cur = op
		} else {
			st := &tab.via
			// The equalities connecting ti to the prefix: ordinals in
			// cur's output paired with column ordinals of ti.
			var outer, inner []int
			for _, jp := range b.joins {
				if o, c, ok := jp.connects(joined, ti); ok {
					oo, _ := m.ord(o)
					outer = append(outer, oo)
					inner = append(inner, c)
				}
			}
			if st.index != nil {
				key, res, err := indexJoinKey(tab.t, b.from[ti].preds, st.index, st.keyLen, outer, inner, m, width, vals)
				if err != nil {
					return nil, err
				}
				cur = &exec.IndexNLJoin{Left: cur, Right: tab.t, Index: st.index, LeftOrds: key, Residual: res, Est: st.rows, Reads: tab.reads}
				tab.built = st.index.Ords[:st.keyLen]
			} else {
				right, err := access(ti)
				if err != nil {
					return nil, err
				}
				if len(outer) > 0 {
					cur = &exec.HashJoin{Left: cur, Right: right, LeftOrds: outer, RightOrds: inner,
						BuildLeft: st.buildLeft, Est: st.rows}
				} else {
					cur = &exec.NLJoin{Left: cur, Right: right, Pred: exec.True{}, Est: st.rows}
				}
			}
		}
		width += tab.t.Schema.Len()
		joined[ti] = true

		// Residuals whose last table just arrived.
		var preds []exec.Pred
		for _, r := range b.residuals {
			if !r.tables[ti] || !covers(joined, r.tables) {
				continue
			}
			bp, err := bind(r.pred, m, vals)
			if err != nil {
				return nil, err
			}
			preds = append(preds, bp)
		}
		if len(preds) > 0 {
			cur = &exec.Filter{Input: cur, Pred: exec.AndOf(preds)}
		}
	}

	// COUNT(*) replaces the projection.
	if b.countStar {
		return &exec.CountStar{Input: cur}, nil
	}
	if b.proj != nil {
		exprs := make([]exec.Scalar, len(b.proj))
		for i, ss := range b.proj {
			phys, err := bindScalar(ss, m, vals)
			if err != nil {
				return nil, err
			}
			exprs[i] = phys
		}
		cur = &exec.Project{Input: cur, Exprs: exprs, Out: b.out}
	}
	if b.distinct {
		cur = &exec.Distinct{Input: cur}
	}
	return cur, nil
}

// covers reports whether every table in need is in have.
func covers(have, need []bool) bool {
	for ti, in := range need {
		if in && !have[ti] {
			return false
		}
	}
	return true
}

// indexJoinKey lays out an index nested-loop join through the first
// keyLen columns of idx: the probe-key ordinals in the prefix's output,
// aligned with those columns, and the residual predicate over the
// concatenated output — connecting equalities the key does not cover
// plus tabPreds, the table's single-table predicates. outer/inner are the
// connecting equalities (prefix ordinal, table column); the table's
// columns start at ordinal at, where m already places them.
func indexJoinKey(t *catalog.Table, tabPreds []symPred, idx *catalog.Index, keyLen int, outer, inner []int, m colMap, at int, vals []rel.Value) ([]int, exec.Pred, error) {
	key := make([]int, keyLen)
	covered := make([]bool, len(inner))
	for i := range key {
		for k, c := range inner {
			if c == idx.Ords[i] {
				key[i] = outer[k]
				covered[k] = true
				break
			}
		}
	}
	var preds []exec.Pred
	for k, c := range inner {
		if covered[k] {
			continue
		}
		ty := t.Schema.Col(c).Type
		preds = append(preds, exec.Cmp{
			Op:    sql.CmpEq,
			Left:  exec.Col{Ord: outer[k], Ty: ty},
			Right: exec.Col{Ord: at + c, Ty: ty},
		})
	}
	preds, err := bindAll(preds, tabPreds, m, vals)
	if err != nil {
		return nil, nil, err
	}
	return key, exec.AndOf(preds), nil
}

// projection resolves the select list symbolically. A nil scalar list
// means the input already has the right shape ('*' over a single table).
func projection(sc *scope, s *sql.Select) ([]symScalar, *rel.Schema, error) {
	var exprs []symScalar
	var cols []rel.Column
	nameCount := make(map[string]int)
	if len(s.Items) == 0 {
		// '*': all columns in FROM order.
		if len(sc.schemas) == 1 {
			return nil, sc.schemas[0], nil // pass through
		}
		for ti, sch := range sc.schemas {
			for c := 0; c < sch.Len(); c++ {
				col := sch.Col(c)
				exprs = append(exprs, symScalar{isCol: true, col: colID{table: ti, col: c}, ty: col.Type})
				cols = append(cols, rel.Column{Name: uniqueName(nameCount, col.Name), Type: col.Type})
			}
		}
	}
	for _, item := range s.Items {
		ss, err := sc.scalar(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		if ss.param > 0 {
			return nil, nil, fmt.Errorf("plan: value parameter ?%d is not compared with a column", ss.param)
		}
		exprs = append(exprs, ss)
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(sql.ColRef); ok {
				name = cr.Column
			} else {
				name = "expr"
			}
		}
		cols = append(cols, rel.Column{Name: uniqueName(nameCount, name), Type: ss.ty})
	}
	// A projected row is keyed, and a set's kept, as stored records:
	// every value must have a type the storage encoding carries.
	for _, col := range cols {
		if col.Type != rel.TypeInt && col.Type != rel.TypeString {
			return nil, nil, fmt.Errorf("plan: select item %s has no storable type (%v)", col.Name, col.Type)
		}
	}
	schema, err := rel.NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	return exprs, schema, nil
}

func uniqueName(count map[string]int, name string) string {
	count[name]++
	if count[name] == 1 {
		return name
	}
	return fmt.Sprintf("%s_%d", name, count[name])
}

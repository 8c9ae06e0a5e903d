// Package plan turns parsed SQL SELECT statements, and the WHERE clause
// of DELETE, into physical operator trees. The planner is the classic
// textbook pipeline the paper's commercial DBMS would run:
//
//   - predicate analysis: split the WHERE clause into per-table
//     conjuncts (pushed below joins), equijoin conjuncts (the edges of
//     the join graph) and residual predicates (applied once their tables
//     are joined);
//   - access-path selection: a table with equality-on-literal conjuncts
//     matching a B+tree index prefix is read through an IndexScan,
//     everything else through a SeqScan;
//   - cost-based left-deep join ordering (order.go): every start table
//     is extended by the cheapest next join, and the cheapest complete
//     order wins.
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
// Statements are planned per execution, so every LFP round is ordered
// against the current delta cardinalities.
package plan

import (
	"fmt"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// TableSource resolves FROM-clause names to physical tables. The live
// catalog implements it directly; a snapshot-bound db.DB view resolves
// base-table names to frozen table versions instead, which is how the
// planner binds a whole query to one consistent engine state.
type TableSource interface {
	Table(name string) *catalog.Table
}

// BuildSelect plans a (possibly compound) SELECT against the source.
//
// UNION, EXCEPT and INTERSECT deduplicate their inputs themselves, so a
// SELECT DISTINCT feeding one gets no Distinct operator of its own.
func BuildSelect(cat TableSource, s *sql.Select) (exec.Operator, error) {
	keepDistinct := func(op sql.SetOp) bool { return op == sql.SetNone || op == sql.SetUnionAll }
	left, err := buildSimple(cat, s, keepDistinct(s.SetOp))
	if err != nil {
		return nil, err
	}
	for cur := s; cur.SetOp != sql.SetNone; cur = cur.Next {
		right, err := buildSimple(cat, cur.Next, keepDistinct(cur.SetOp))
		if err != nil {
			return nil, err
		}
		var kind exec.SetOpKind
		switch cur.SetOp {
		case sql.SetUnion:
			kind = exec.OpUnion
		case sql.SetUnionAll:
			kind = exec.OpUnionAll
		case sql.SetExcept:
			kind = exec.OpExcept
		case sql.SetIntersect:
			kind = exec.OpIntersect
		}
		left = &exec.SetOpExec{Kind: kind, Left: left, Right: right}
	}
	return left, nil
}

// BuildDelete plans the scan that finds the victims of DELETE FROM t
// WHERE p: the access path SELECT * FROM t WHERE p reads t through (an
// IndexScan when literal equalities bind an index prefix, a SeqScan
// otherwise, the whole predicate re-checked in a Filter above it). The
// result is an exec.RowSource.
func BuildDelete(cat TableSource, s sql.Delete) (exec.Operator, error) {
	return buildSimple(cat, &sql.Select{
		From:  []sql.TableRef{{Table: s.Table, Alias: s.Table}},
		Where: s.Where,
	}, false)
}

// colID names a column symbolically: table position in FROM, ordinal in
// that table's schema. Predicates are analyzed symbolically and bound to
// physical ordinals only when attached to an operator.
type colID struct {
	table int
	col   int
}

// symScalar is a column or literal leaf.
type symScalar struct {
	isCol bool
	col   colID
	ty    rel.Type
	val   rel.Value
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

// scope resolves names during planning.
type scope struct {
	aliases []string
	tables  []*catalog.Table
}

func (sc *scope) resolve(c sql.ColRef) (colID, rel.Type, error) {
	if c.Table != "" {
		for i, a := range sc.aliases {
			if a == c.Table {
				o := sc.tables[i].Schema.Ordinal(c.Column)
				if o < 0 {
					return colID{}, 0, fmt.Errorf("plan: no column %s in %s", c.Column, c.Table)
				}
				return colID{table: i, col: o}, sc.tables[i].Schema.Col(o).Type, nil
			}
		}
		return colID{}, 0, fmt.Errorf("plan: unknown table alias %s", c.Table)
	}
	found := -1
	ord := -1
	for i, t := range sc.tables {
		if o := t.Schema.Ordinal(c.Column); o >= 0 {
			if found >= 0 {
				return colID{}, 0, fmt.Errorf("plan: ambiguous column %s", c.Column)
			}
			found, ord = i, o
		}
	}
	if found < 0 {
		return colID{}, 0, fmt.Errorf("plan: unknown column %s", c.Column)
	}
	return colID{table: found, col: ord}, sc.tables[found].Schema.Col(ord).Type, nil
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
	default:
		return symScalar{}, fmt.Errorf("plan: unsupported scalar %T", e)
	}
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

// bind converts a symbolic predicate to a physical one via the map.
func bind(p symPred, m colMap) (exec.Pred, error) {
	switch v := p.(type) {
	case symCmp:
		l, err := bindScalar(v.left, m)
		if err != nil {
			return nil, err
		}
		r, err := bindScalar(v.right, m)
		if err != nil {
			return nil, err
		}
		return exec.Cmp{Op: v.op, Left: l, Right: r}, nil
	case symAnd:
		l, err := bind(v.left, m)
		if err != nil {
			return nil, err
		}
		r, err := bind(v.right, m)
		if err != nil {
			return nil, err
		}
		return exec.AndP{Preds: []exec.Pred{l, r}}, nil
	case symOr:
		l, err := bind(v.left, m)
		if err != nil {
			return nil, err
		}
		r, err := bind(v.right, m)
		if err != nil {
			return nil, err
		}
		return exec.OrP{Left: l, Right: r}, nil
	case symNot:
		in, err := bind(v.inner, m)
		if err != nil {
			return nil, err
		}
		return exec.NotP{Inner: in}, nil
	default:
		return nil, fmt.Errorf("plan: unknown symbolic predicate %T", p)
	}
}

// bindAll binds a conjunction, appending to preds.
func bindAll(preds []exec.Pred, ps []symPred, m colMap) ([]exec.Pred, error) {
	for _, p := range ps {
		bp, err := bind(p, m)
		if err != nil {
			return nil, err
		}
		preds = append(preds, bp)
	}
	return preds, nil
}

func bindScalar(s symScalar, m colMap) (exec.Scalar, error) {
	if !s.isCol {
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

// buildSimple plans one SELECT block; distinct says whether its
// DISTINCT, if any, needs an operator.
func buildSimple(cat TableSource, s *sql.Select, distinct bool) (exec.Operator, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("plan: empty FROM")
	}
	sc := &scope{}
	for _, tr := range s.From {
		t := cat.Table(tr.Table)
		if t == nil {
			return nil, fmt.Errorf("plan: no table %s", tr.Table)
		}
		for _, a := range sc.aliases {
			if a == tr.Alias {
				return nil, fmt.Errorf("plan: duplicate alias %s", tr.Alias)
			}
		}
		sc.aliases = append(sc.aliases, tr.Alias)
		sc.tables = append(sc.tables, t)
	}
	n := len(sc.tables)

	// Classify predicates: single-table conjuncts are pushed into the
	// table's access path, cross-table equalities are the join graph's
	// edges, everything else waits for its tables.
	g := &joinGraph{tabs: make([]tableInfo, n)}
	var residuals []residual
	if s.Where != nil {
		p, err := sc.pred(s.Where)
		if err != nil {
			return nil, err
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
				g.tabs[only].preds = append(g.tabs[only].preds, conj)
			} else if l, r, ok := equijoin(conj); ok {
				g.joins = append(g.joins, joinPred{l, r})
			} else {
				residuals = append(residuals, residual{conj, set})
			}
		}
	}
	for ti, t := range sc.tables {
		g.tabs[ti].analyze(t)
	}

	// m places the attached tables in cur's output; local is the same
	// map for one table alone, binding its own predicates below the
	// joins.
	unplaced := make(colMap, 2*n)
	for i := range unplaced {
		unplaced[i] = -1
	}
	m, local := unplaced[:n], unplaced[n:]
	access := func(ti int) (exec.Operator, error) {
		tab := &g.tabs[ti]
		var op exec.Operator
		if tab.scanIndex != nil {
			op = &exec.IndexScan{Table: tab.t, Index: tab.scanIndex, Key: tab.scanKey, Est: tab.touch}
		} else {
			op = &exec.SeqScan{Table: tab.t, Est: tab.touch}
		}
		if len(tab.preds) == 0 {
			return op, nil
		}
		// Attach all table predicates (the index may cover only some;
		// re-checking the covered equalities is cheap and keeps the
		// planner simple and the executor obviously correct).
		local[ti] = 0
		preds, err := bindAll(nil, tab.preds, local)
		local[ti] = -1
		if err != nil {
			return nil, err
		}
		return &exec.Filter{Input: op, Pred: exec.AndOf(preds)}, nil
	}

	// Attach the tables in the order of least estimated cost; each step
	// is re-costed against the running prefix to pick its join method.
	var cur exec.Operator
	joined := make([]bool, n)
	width := 0
	rows := 0.0
	order := []int{0} // single-table statements skip the search and its scratch
	if n > 1 {
		order = g.order()
	}
	for i, ti := range order {
		tab := &g.tabs[ti]
		m[ti] = width
		if i == 0 {
			op, err := access(ti)
			if err != nil {
				return nil, err
			}
			cur, rows = op, tab.est
		} else {
			st := g.attach(joined, rows, ti)
			// The equalities connecting ti to the prefix: ordinals in
			// cur's output paired with column ordinals of ti.
			var outer, inner []int
			for _, jp := range g.joins {
				if o, c, ok := jp.connects(joined, ti); ok {
					oo, _ := m.ord(o)
					outer = append(outer, oo)
					inner = append(inner, c)
				}
			}
			if st.index != nil {
				key, res, err := indexJoinKey(tab, st.index, st.keyLen, outer, inner, m, width)
				if err != nil {
					return nil, err
				}
				cur = &exec.IndexNLJoin{Left: cur, Right: tab.t, Index: st.index, LeftOrds: key, Residual: res, Est: st.rows}
			} else {
				right, err := access(ti)
				if err != nil {
					return nil, err
				}
				if len(outer) > 0 {
					cur = &exec.HashJoin{Left: cur, Right: right, LeftOrds: outer, RightOrds: inner,
						BuildLeft: rows < tab.est, Est: st.rows}
				} else {
					cur = &exec.NLJoin{Left: cur, Right: right, Pred: exec.True{}, Est: st.rows}
				}
			}
			rows = st.rows
		}
		width += tab.t.Schema.Len()
		joined[ti] = true

		// Residuals whose last table just arrived.
		var preds []exec.Pred
		for _, r := range residuals {
			if !r.tables[ti] || !covers(joined, r.tables) {
				continue
			}
			bp, err := bind(r.pred, m)
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
	if s.CountStar {
		return &exec.CountStar{Input: cur}, nil
	}

	// Projection.
	proj, outSchema, err := projection(sc, s, m)
	if err != nil {
		return nil, err
	}
	if proj != nil {
		cur = &exec.Project{Input: cur, Exprs: proj, Out: outSchema}
	}
	if s.Distinct && distinct {
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
// plus the table's single-table predicates. outer/inner are the
// connecting equalities (prefix ordinal, table column); the table's
// columns start at ordinal at, where m already places them.
func indexJoinKey(tab *tableInfo, idx *catalog.Index, keyLen int, outer, inner []int, m colMap, at int) ([]int, exec.Pred, error) {
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
		ty := tab.t.Schema.Col(c).Type
		preds = append(preds, exec.Cmp{
			Op:    sql.CmpEq,
			Left:  exec.Col{Ord: outer[k], Ty: ty},
			Right: exec.Col{Ord: at + c, Ty: ty},
		})
	}
	preds, err := bindAll(preds, tab.preds, m)
	if err != nil {
		return nil, nil, err
	}
	return key, exec.AndOf(preds), nil
}

// projection resolves the select list. A nil scalar list means the input
// already has the right shape ('*' over a single table).
func projection(sc *scope, s *sql.Select, m colMap) ([]exec.Scalar, *rel.Schema, error) {
	if len(s.Items) == 0 {
		// '*': all columns in FROM order.
		if len(sc.tables) == 1 {
			return nil, nil, nil // pass through
		}
		var exprs []exec.Scalar
		var cols []rel.Column
		nameCount := make(map[string]int)
		for ti, t := range sc.tables {
			for c := 0; c < t.Schema.Len(); c++ {
				col := t.Schema.Col(c)
				exprs = append(exprs, exec.Col{Ord: m[ti] + c, Ty: col.Type})
				cols = append(cols, rel.Column{Name: uniqueName(nameCount, col.Name), Type: col.Type})
			}
		}
		schema, err := rel.NewSchema(cols...)
		if err != nil {
			return nil, nil, err
		}
		return exprs, schema, nil
	}
	var exprs []exec.Scalar
	var cols []rel.Column
	nameCount := make(map[string]int)
	for _, item := range s.Items {
		ss, err := sc.scalar(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		phys, err := bindScalar(ss, m)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, phys)
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

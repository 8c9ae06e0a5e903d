package plan

import (
	"math"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// tableInfo is what the cost model knows about one FROM table: the
// access path its single-table conjuncts select, the cardinalities that
// path implies, and the join that attaches it.
type tableInfo struct {
	t *catalog.Table
	// reads records what this execution reads of t: the source's
	// recorder when t is a published (frozen) version, else nil.
	reads *exec.Reads

	// scanIndex/scanKey are the IndexScan serving the table's literal
	// equalities, with this execution's values encoded for its scanCols
	// leading columns; nil means SeqScan. scanKey's array is reused by
	// the next execution's analyze.
	scanIndex *catalog.Index
	scanKey   []byte
	scanCols  int

	est   float64 // rows left after preds
	touch float64 // rows the access path reads to produce them

	// built are the leading index columns of the IndexScan or index
	// join the kept tree reads the table through, nil for a SeqScan or
	// hash join side: the decision its operator was constructed from,
	// which re-binding compares and shedding keeps.
	built []int

	// via is the step attaching the table to the tables before it in
	// the join order; zero for the first.
	via step
}

// analyze picks the access path of the table just bound and estimates
// its cardinality after the local predicates, eqLit being the column =
// literal ones among them and vals the values of their parameters.
// When an index covers the literal key the estimate is the exact posting
// count. The key is encoded once, here; it allocates only when it
// outgrows the array the last execution left.
func (tab *tableInfo) analyze(eqLit []litEq, vals []rel.Value) {
	t := tab.t
	tab.est = float64(t.Rows())
	tab.touch = tab.est
	tab.scanIndex, tab.scanKey, tab.scanCols = nil, tab.scanKey[:0], 0
	if len(eqLit) == 0 {
		return
	}
	if idx, n := pickIndex(t, eqLit); idx != nil {
		for _, o := range idx.Ords[:n] {
			tab.scanKey = eqLit[litFor(eqLit, o)].lit.value(vals).AppendKey(tab.scanKey)
		}
		tab.scanIndex, tab.scanCols = idx, n
		tab.est = float64(idx.Tree.CountPrefix(tab.scanKey))
		tab.touch = tab.est
	} else {
		// Unindexed literal equality: assume strong filtering.
		tab.est = float64(t.Rows()/10 + 1)
	}
}

// litEq is a column = literal conjunct of one table; the literal is a
// value parameter's when lit.param is set.
type litEq struct {
	col int
	lit symScalar
}

// literalEqualities picks the column = literal and column = ?n
// conjuncts out of one table's predicates.
func literalEqualities(preds []symPred) []litEq {
	var eqLit []litEq
	for _, p := range preds {
		if c, ok := p.(symCmp); ok && c.op == sql.CmpEq {
			if c.left.isCol && !c.right.isCol {
				eqLit = append(eqLit, litEq{c.left.col.col, c.right})
			} else if c.right.isCol && !c.left.isCol {
				eqLit = append(eqLit, litEq{c.right.col.col, c.left})
			}
		}
	}
	return eqLit
}

// pickIndex chooses the index with the longest prefix fully bound by
// the literal equalities, first in t.Indexes on ties, and returns it
// with that prefix's length.
func pickIndex(t *catalog.Table, eqLit []litEq) (best *catalog.Index, bestLen int) {
	for _, idx := range t.Indexes {
		n := 0
		for _, o := range idx.Ords {
			if litFor(eqLit, o) < 0 {
				break
			}
			n++
		}
		if n > bestLen {
			best, bestLen = idx, n
		}
	}
	return best, bestLen
}

// litFor returns the position of the first literal equality on column
// col, or -1.
func litFor(eqLit []litEq, col int) int {
	for i, e := range eqLit {
		if e.col == col {
			return i
		}
	}
	return -1
}

// joinPred is a cross-table column equality, an edge of the join graph.
type joinPred struct{ l, r colID }

// connects reports whether the edge joins table ti to an already-joined
// table, returning the joined side's column and ti's column ordinal.
func (jp joinPred) connects(joined []bool, ti int) (outer colID, inner int, ok bool) {
	switch {
	case jp.r.table == ti && joined[jp.l.table]:
		return jp.l, jp.r.col, true
	case jp.l.table == ti && joined[jp.r.table]:
		return jp.r, jp.l.col, true
	}
	return colID{}, 0, false
}

// joinGraph is the FROM list as the cost model sees it.
type joinGraph struct {
	tabs  []tableInfo
	joins []joinPred
}

// step is the cost model's verdict on attaching one table to a running
// prefix: the rows the join touches, the rows it emits, and the method
// those follow from — an index nested-loop join through the first
// keyLen columns of index when index is non-nil, otherwise a hash join
// (hashing the prefix when buildLeft is set) or, with no connecting
// equality, a cross product.
type step struct {
	cost, rows float64
	index      *catalog.Index
	keyLen     int
	cross      bool
	buildLeft  bool
}

// attach costs joining table ti to a prefix of p estimated rows over
// the joined tables. The cost of a join is the rows it must touch:
//
//	index join   p × fan-out     entries/keys of the B+tree whose leading
//	                             columns are join columns (≥ 1 per probe)
//	hash join    touch(ti) + p   the table's access path plus one probe
//	                             per prefix row
//	cross        touch(ti) + p × est(ti)
//
// and the cheaper of index and hash join is the method. Output rows are
// p × fan-out × local selectivity when an index gives the fan-out, and
// the smaller input otherwise (no statistics on un-indexed columns:
// assume the join column is a key of the larger side).
func (g *joinGraph) attach(joined []bool, p float64, ti int) step {
	tab := &g.tabs[ti]
	connected := false
	for _, jp := range g.joins {
		if _, _, ok := jp.connects(joined, ti); ok {
			connected = true
			break
		}
	}
	if !connected {
		return step{cost: tab.touch + p*tab.est, rows: p * tab.est, cross: true}
	}
	hash := step{cost: tab.touch + p, rows: math.Min(p, tab.est)}
	// The index whose leading columns are join columns, longest prefix
	// first: it is the most selective probe.
	var idx *catalog.Index
	keyLen := 0
	for _, cand := range tab.t.Indexes {
		l := 0
		for _, o := range cand.Ords {
			if !g.joinColumn(joined, ti, o) {
				break
			}
			l++
		}
		if l > keyLen {
			idx, keyLen = cand, l
		}
	}
	if idx == nil {
		return hash
	}
	fan := fanOut(idx, keyLen)
	rows := p * fan
	if n := tab.t.Rows(); n > 0 {
		rows *= tab.est / float64(n)
	}
	hash.rows = rows
	if probe := p * math.Max(fan, 1); probe < hash.cost {
		return step{cost: probe, rows: rows, index: idx, keyLen: keyLen}
	}
	return hash
}

// joinColumn reports whether column col of table ti is equated with a
// column of a joined table.
func (g *joinGraph) joinColumn(joined []bool, ti, col int) bool {
	for _, jp := range g.joins {
		if _, c, ok := jp.connects(joined, ti); ok && c == col {
			return true
		}
	}
	return false
}

// fanOut estimates the rows one probe on the first keyLen columns of
// idx fetches: entries per distinct key for a full key; for a proper
// prefix the tree only counts whole keys, so each column is assumed to
// contribute equally to their distinctness.
func fanOut(idx *catalog.Index, keyLen int) float64 {
	st := idx.Stats()
	if st.Keys == 0 {
		return 0
	}
	keys := float64(st.Keys)
	if keyLen < len(idx.Ords) {
		keys = math.Pow(keys, float64(keyLen)/float64(len(idx.Ords)))
	}
	return float64(st.Entries) / keys
}

// order writes into best the left-deep join order of least total cost:
// every table is tried as the start, each start is extended by the
// cheapest next step, and the cheapest complete order wins (first in
// FROM order on ties). Rule bodies have a handful of literals, so the n
// starts × n steps × n candidates enumeration needs no cap. ord (of
// capacity n) and joined are scratch.
func (g *joinGraph) order(best, ord []int, joined []bool) {
	n := len(g.tabs)
	bestCost := math.Inf(1)
	for start := range g.tabs {
		clear(joined)
		ord = append(ord[:0], start)
		joined[start] = true
		cost, p := g.tabs[start].touch, g.tabs[start].est
		for len(ord) < n && cost < bestCost {
			next, nextCost, nextRows := -1, math.Inf(1), 0.0
			for ti := range g.tabs {
				if joined[ti] {
					continue
				}
				if st := g.attach(joined, p, ti); st.cost < nextCost {
					next, nextCost, nextRows = ti, st.cost, st.rows
				}
			}
			ord = append(ord, next)
			joined[next] = true
			cost += nextCost
			p = nextRows
		}
		if len(ord) == n && cost < bestCost {
			copy(best, ord)
			bestCost = cost
		}
	}
}

package exec

import (
	"fmt"
	"math"

	"dkbms/internal/catalog"
	"dkbms/internal/index"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// Instrument wraps every operator of the tree in a row counter and
// returns the instrumented tree plus a flush function. After the tree
// has been drained (or abandoned on error), flush writes one child span
// per operator under parent — name, rows emitted and, on scans and
// joins, the planner's estimate of them — mirroring the tree shape,
// EXPLAIN ANALYZE-style. With a nil parent the tree is returned
// untouched and flush is a no-op, so callers thread an optional span
// unconditionally.
func Instrument(op Operator, parent *obs.Span) (Operator, func()) {
	if parent == nil {
		return op, func() {}
	}
	root := &opCount{}
	wrapped := wrap(op, root)
	return wrapped, func() { root.emit(parent) }
}

// opCount is the row counter of one wrapped operator.
type opCount struct {
	name string
	rows int64
	est  float64 // planner's estimate of rows; negative when the operator carries none
	kids []*opCount
	io   *ioProbe // non-nil on leaf access paths (scans, index probes)
}

func (c *opCount) emit(parent *obs.Span) {
	sp := parent.Start(c.name)
	sp.SetInt("rows", c.rows)
	if c.est >= 0 {
		sp.SetInt("est", int64(math.Round(c.est)))
	}
	c.io.emit(sp)
	for _, k := range c.kids {
		k.emit(sp)
	}
}

// ioProbe attributes physical I/O to one access-path operator: it
// snapshots the operator's heap/index/buffer-pool counters when the
// operator first opens and emits the deltas as span attributes. The
// counters are engine-wide, so under concurrent queries the delta is an
// upper bound on this operator's share; for a single running query it is
// exact (the unit the paper costs its experiments in).
type ioProbe struct {
	heap *storage.HeapFile
	idx  *catalog.Index

	armed    bool
	heapBase storage.HeapStats
	poolBase storage.PagerStats
	treeBase index.TreeStats
}

// arm takes the baseline snapshot. Called on the operator's first Open;
// re-opens (LFP iterations rebuild cursors) keep the original baseline
// so the emitted delta covers the whole query.
func (p *ioProbe) arm() {
	if p == nil || p.armed {
		return
	}
	p.armed = true
	if p.heap != nil {
		p.heapBase = p.heap.Stats()
		p.poolBase = p.heap.Pager().Stats()
	}
	if p.idx != nil {
		p.treeBase = p.idx.Stats()
	}
}

// emit writes the I/O deltas onto the operator's span.
func (p *ioProbe) emit(sp *obs.Span) {
	if p == nil || !p.armed {
		return
	}
	if p.heap != nil {
		d := p.heap.Stats().Sub(p.heapBase)
		if p.idx == nil {
			// Sequential access: whole-chain passes.
			sp.SetInt("heap_pages", d.PagesScanned)
			sp.SetInt("heap_recs", d.RecsScanned)
		} else {
			// Index-driven access: point reads behind postings.
			sp.SetInt("heap_reads", d.Reads)
		}
		pd := p.heap.Pager().Stats()
		sp.SetInt("pool_hits", pd.Hits-p.poolBase.Hits)
		sp.SetInt("pool_misses", pd.Misses-p.poolBase.Misses)
	}
	if p.idx != nil {
		td := p.idx.Stats()
		sp.SetInt("descents", td.Searches-p.treeBase.Searches)
	}
}

// child allocates a counter node under c.
func (c *opCount) child() *opCount {
	k := &opCount{}
	c.kids = append(c.kids, k)
	return k
}

// wrap rebuilds the operator tree with counting decorators, recording
// operator names as it descends. Unknown operator types are counted
// under their Go type name with no visible children.
func wrap(op Operator, c *opCount) Operator {
	c.est = -1
	switch o := op.(type) {
	case *SeqScan:
		c.name = fmt.Sprintf("scan(%s)", o.Table.Name)
		c.est = o.Est
		c.io = &ioProbe{heap: o.Table.Heap}
	case *IndexScan:
		c.name = fmt.Sprintf("idxscan(%s.%s)", o.Table.Name, o.Index.Name)
		c.est = o.Est
		c.io = &ioProbe{heap: o.Table.Heap, idx: o.Index}
	case *IndexNLJoin:
		c.name = fmt.Sprintf("idxjoin(%s.%s)", o.Right.Name, o.Index.Name)
		c.est = o.Est
		c.io = &ioProbe{heap: o.Right.Heap, idx: o.Index}
		o.Left = wrap(o.Left, c.child())
	case *Filter:
		c.name = "filter"
		o.Input = wrap(o.Input, c.child())
	case *Project:
		c.name = "project"
		o.Input = wrap(o.Input, c.child())
	case *NLJoin:
		c.name = "nljoin"
		c.est = o.Est
		o.Left = wrap(o.Left, c.child())
		o.Right = wrap(o.Right, c.child())
	case *HashJoin:
		c.name = "hashjoin"
		c.est = o.Est
		o.Left = wrap(o.Left, c.child())
		o.Right = wrap(o.Right, c.child())
	case *Distinct:
		c.name = "distinct"
		o.Input = wrap(o.Input, c.child())
	case *SetOpExec:
		c.name = setOpName(o.Kind)
		o.Left = wrap(o.Left, c.child())
		o.Right = wrap(o.Right, c.child())
	case *CountStar:
		c.name = "count"
		o.Input = wrap(o.Input, c.child())
	case *Values:
		c.name = "values"
	default:
		c.name = fmt.Sprintf("%T", op)
	}
	return &countedOp{inner: op, c: c}
}

func setOpName(k SetOpKind) string {
	switch k {
	case OpUnion:
		return "union"
	case OpUnionAll:
		return "union-all"
	case OpExcept:
		return "except"
	case OpIntersect:
		return "intersect"
	}
	return "setop"
}

// countedOp forwards the Operator contract, counting emitted rows.
type countedOp struct {
	inner Operator
	c     *opCount
}

// Schema returns the inner operator's schema.
func (w *countedOp) Schema() *rel.Schema { return w.inner.Schema() }

// Open arms the I/O probe (first open only) and opens the inner
// operator.
func (w *countedOp) Open() error {
	w.c.io.arm()
	return w.inner.Open()
}

// Next forwards one tuple, counting it.
func (w *countedOp) Next() (rel.Tuple, error) {
	tu, err := w.inner.Next()
	if tu != nil {
		w.c.rows++
	}
	return tu, err
}

// Close closes the inner operator.
func (w *countedOp) Close() error { return w.inner.Close() }

// ScanRecords forwards RecordSource, arming the I/O probe as Open would
// and counting each record as a row.
func (w *countedOp) ScanRecords(fn func(rec []byte) error) (bool, error) {
	w.c.io.arm()
	return ScanRecords(w.inner, func(rec []byte) error {
		w.c.rows++
		return fn(rec)
	})
}

// ScanRows forwards RowSource, arming the I/O probe as Open would and
// counting each row.
func (w *countedOp) ScanRows(fn func(rid storage.RID, tu rel.Tuple) error) error {
	w.c.io.arm()
	return ScanRows(w.inner, func(rid storage.RID, tu rel.Tuple) error {
		w.c.rows++
		return fn(rid, tu)
	})
}

// takeSet forwards setSource; the rows of the set handed over are the
// rows the inner operator would have emitted.
func (w *countedOp) takeSet() (*tupleSet, error) {
	src, ok := w.inner.(setSource)
	if !ok {
		return nil, nil
	}
	set, err := src.takeSet()
	if set != nil {
		w.c.rows += int64(set.n)
	}
	return set, err
}

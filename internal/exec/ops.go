package exec

import (
	"context"
	"fmt"
	"slices"

	"dkbms/internal/catalog"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// Operator is a Volcano-style iterator. The contract is Open, then Next
// until it returns a nil tuple, then Close. An operator is re-openable
// after Close: Open starts a new pass, over whatever tables the
// operator names by then — the planner re-binds a kept tree's tables
// between executions. A pass's rows are valid until the operator's next
// Open, which may write the next pass's rows over them: a closed
// operator keeps the working memory its last pass used (scan blocks,
// key tables, sets, slabs) for the next to reuse, and releases what that
// pass outgrew (see mem.go). Whoever keeps a row past the statement
// copies it (CollectOwned).
//
// Scans and joins carry Est, the planner's estimate of the rows the
// operator emits. Execution ignores it; Instrument reports it beside the
// actual count.
type Operator interface {
	Schema() *rel.Schema
	Open() error
	Next() (rel.Tuple, error)
	Close() error
}

// Run drains an operator, invoking fn per tuple.
func Run(op Operator, fn func(tu rel.Tuple) error) error {
	return RunCtx(context.Background(), op, fn)
}

// RunCtx drains an operator like Run, but polls the context between
// tuples: cancelling ctx aborts the drain with ctx.Err() at the next
// tuple boundary. This is the statement-level cancellation point — the
// operators themselves stay context-free (each Next consumes a bounded
// amount of its finite, Open-materialized input), so a runaway join or
// scan is cut off here rather than inside every operator.
func RunCtx(ctx context.Context, op Operator, fn func(tu rel.Tuple) error) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		tu, err := op.Next()
		if err != nil {
			return err
		}
		if tu == nil {
			return nil
		}
		if err := fn(tu); err != nil {
			return err
		}
	}
}

// Collect drains an operator into a slice.
func Collect(op Operator) ([]rel.Tuple, error) {
	return CollectCtx(context.Background(), op)
}

// CollectCtx drains an operator into a slice, observing the context
// between tuples like RunCtx. A set operation, which has its whole
// result in hand once evaluated, gives it up instead of being drained
// into a second slice, and a bare table scan decodes its table into one
// block instead of a block per page.
func CollectCtx(ctx context.Context, op Operator) ([]rel.Tuple, error) {
	rows, _, err := drain(ctx, op)
	return rows, err
}

// CollectOwned is CollectCtx for a caller that keeps the rows past the
// statement: they own their memory (rel.OwnRows). A set operation's
// result and a bare scan's table are decoded into a block of their own
// and kept as they are; any other result is copied.
func CollectOwned(ctx context.Context, op Operator) ([]rel.Tuple, error) {
	rows, owned, err := drain(ctx, op)
	if err == nil && !owned {
		rel.OwnRows(rows)
	}
	return rows, err
}

// drain is CollectCtx; owned reports rows decoded into a block of their
// own.
func drain(ctx context.Context, op Operator) (rows []rel.Tuple, owned bool, err error) {
	if scan, ok := op.(*SeqScan); ok {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		b, err := scan.Table.DecodeAll()
		return blockRows(b), true, err
	}
	if src, ok := op.(setSource); ok {
		if set, err := src.takeSet(); err != nil {
			return nil, false, err
		} else if set != nil {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			rows, err := set.live()
			set.trim()
			return rows, true, err
		}
	}
	err = RunCtx(ctx, op, func(tu rel.Tuple) error {
		rows = append(rows, tu)
		return nil
	})
	return rows, false, err
}

// RecordSource is the optional interface of operators that can stream
// their rows as stored records instead of decoded tuples. A consumer
// that only needs tuple identity — a set operation's right input,
// COUNT(*), INSERT ... SELECT into an index-less table — asks for it
// in place of Open/Next/Close: a stored record is the key of the tuple
// it holds (rel.Tuple.AppendKey), so nothing is decoded. SeqScan and
// the deduplicating SetOpExec implement it; Instrument's wrapper
// forwards and counts it, so traced and untraced statements take the
// same path. Records are encoded under the operator's own Schema: a
// consumer that compares them with keys built under another schema
// checks TypesCompatible first.
type RecordSource interface {
	// ScanRecords calls fn with every row's record; rec aliases a page
	// buffer and must not be retained. ok is false, with nothing read,
	// when the operator has no stored records to offer; the caller then
	// falls back to Open/Next/Close.
	ScanRecords(fn func(rec []byte) error) (ok bool, err error)
}

// ScanRecords streams op's rows through fn as stored records if op is
// a RecordSource that has them (see there); otherwise ok is false.
func ScanRecords(op Operator, fn func(rec []byte) error) (ok bool, err error) {
	if src, isSrc := op.(RecordSource); isSrc {
		return src.ScanRecords(fn)
	}
	return false, nil
}

// RowSource is the optional interface of operators whose rows are the
// stored tuples of one table — a scan, or a Filter over one — and so
// have an address. DELETE ... WHERE drains its victims through it in
// place of Open/Next/Close. Instrument's wrapper forwards and counts it.
type RowSource interface {
	// ScanRows calls fn with every row and the RID it is stored at. fn
	// must not modify the table: an index scan iterates the B+tree's own
	// posting list.
	ScanRows(fn func(rid storage.RID, tu rel.Tuple) error) error
}

// ScanRows streams op's rows through fn with their RIDs; op must be a
// RowSource.
func ScanRows(op Operator, fn func(rid storage.RID, tu rel.Tuple) error) error {
	src, ok := op.(RowSource)
	if !ok {
		return fmt.Errorf("exec: %T has no stored rows to address", op)
	}
	return src.ScanRows(fn)
}

// --- SeqScan ---

// SeqScan reads every tuple of a table, a page at a time. Unlent, Open
// decodes each heap page into one block and Next walks the blocks; a
// re-opened scan decodes page i over its last execution's block i. A
// scan the planner lends (Borrowed) decodes nothing in Open: Next
// decodes one page at a time, pinned only while it is decoded, into a
// single block that every page and every execution of the kept tree
// reuses, so a row is valid until the scan's next Next. Either way the
// heap counts one scan per execution and each page and its live records
// as they are read.
type SeqScan struct {
	Table *catalog.Table
	Est   float64
	// Borrowed is set by the planner when the consumer finishes with
	// each row before it asks for the next: a Project's input, a hash
	// join's probe side, a deduplicating set operation's block.
	Borrowed bool

	blocks []rel.Block // unlent
	lent   *lentPass   // lent, from the first Open on
	block  int32       // blocks[block] is being read
	row    int32       // next row of it, or of the lent block
	dec    rel.BlockDecoder
}

// lentPass is what a lent scan keeps: its pass over the heap and the
// one block it decodes every page into.
type lentPass struct {
	pages storage.PageCursor
	block rel.Block
}

// Schema returns the table schema.
func (s *SeqScan) Schema() *rel.Schema { return s.Table.Schema }

// Open starts a pass over the table: an unlent scan decodes every page
// now, a lent one leaves its first page to the first Next.
func (s *SeqScan) Open() error {
	s.block, s.row = 0, 0
	decoderFor(&s.dec, s.Table.Schema)
	if s.Borrowed {
		if s.lent == nil {
			s.lent = new(lentPass)
		}
		l := s.lent
		// The block holds the largest page read so far; a table that
		// leaves it Outgrown lets it go. Its rows are the last
		// execution's: read as done.
		if rel.Outgrown(l.block.Cap()*rel.ValueSize, s.Table.Rows()*s.Table.Schema.Len()*rel.ValueSize) {
			l.block = rel.Block{}
		}
		l.pages, s.row = s.Table.Heap.Pages(), int32(l.block.Len())
		return nil
	}
	var err error
	s.blocks, err = s.Table.DecodeBlocks(&s.dec, s.blocks)
	return err
}

// decoderFor makes dec a decoder of schema, keeping it when it is one.
func decoderFor(dec *rel.BlockDecoder, schema *rel.Schema) {
	if dec.Schema() != schema {
		*dec = rel.NewBlockDecoder(schema)
	}
}

// blockRows returns the rows of b, nil when it has none.
func blockRows(b rel.Block) []rel.Tuple {
	if b.Len() == 0 {
		return nil
	}
	rows := make([]rel.Tuple, b.Len())
	for i := range rows {
		rows[i] = b.Row(i)
	}
	return rows
}

// Next returns the next tuple or nil.
func (s *SeqScan) Next() (rel.Tuple, error) {
	if s.Borrowed {
		return s.nextLent()
	}
	for int(s.block) < len(s.blocks) {
		if b := s.blocks[s.block]; int(s.row) < b.Len() {
			s.row++
			return b.Row(int(s.row) - 1), nil
		}
		s.block, s.row = s.block+1, 0
	}
	return nil, nil
}

// nextLent is Next of a lent scan: past the last row of its block it
// decodes the next page over it.
func (s *SeqScan) nextLent() (rel.Tuple, error) {
	for int(s.row) >= s.lent.block.Len() {
		if more, err := s.lent.pages.Next(s.decodePage); !more || err != nil {
			return nil, err
		}
	}
	s.row++
	return s.lent.block.Row(int(s.row) - 1), nil
}

// decodePage decodes a lent scan's page over its block.
func (s *SeqScan) decodePage(pg *storage.Page) (err error) {
	s.lent.block, err = s.Table.DecodePage(&s.dec, s.lent.block, pg)
	s.row = 0
	return err
}

// Close keeps the blocks for the next Open to decode over.
func (s *SeqScan) Close() error { return nil }

// ScanRecords streams the table's records in one heap pass — the same
// pages and records Open reads.
func (s *SeqScan) ScanRecords(fn func(rec []byte) error) (bool, error) {
	return true, s.Table.Heap.Scan(func(_ storage.RID, rec []byte) error { return fn(rec) })
}

// ScanRows streams the table's tuples with their RIDs in one heap pass.
func (s *SeqScan) ScanRows(fn func(rid storage.RID, tu rel.Tuple) error) error {
	return s.Table.Scan(fn)
}

// --- IndexScan ---

// IndexScan reads tuples whose index key starts with Key (equality on a
// prefix of the index columns). Open descends the index once and
// decodes the rows its postings point at into one block, over the last
// execution's when that fits them.
type IndexScan struct {
	Table *catalog.Table
	Index *catalog.Index
	Key   rel.Tuple // prefix values for the leading index columns
	Est   float64

	rows rel.Block
	pos  int
	dec  rel.BlockDecoder
}

// Schema returns the table schema.
func (s *IndexScan) Schema() *rel.Schema { return s.Table.Schema }

// Open performs the index lookup and reads the matching tuples from the
// heap.
func (s *IndexScan) Open() error {
	_, err := s.read()
	return err
}

// read is Open; it also returns where each row is stored.
func (s *IndexScan) read() ([]storage.RID, error) {
	rids := indexLookup(s.Index, s.Key)
	decoderFor(&s.dec, s.Table.Schema)
	s.dec.BeginReusing(s.rows, len(rids), 0)
	if err := s.Table.AddRows(&s.dec, rids); err != nil {
		return nil, fmt.Errorf("exec: index %s points at missing %w", s.Index.Name, err)
	}
	s.rows, s.pos = s.dec.Finish(), 0
	return rids, nil
}

// indexLookup descends the index once for the postings of key, a value
// for each of the index's leading columns.
func indexLookup(idx *catalog.Index, key rel.Tuple) []storage.RID {
	if len(key) == len(idx.Ords) {
		return idx.Tree.Lookup(key)
	}
	return idx.Tree.LookupPrefix(key)
}

// Next returns the next matching tuple.
func (s *IndexScan) Next() (rel.Tuple, error) {
	if s.pos >= s.rows.Len() {
		return nil, nil
	}
	s.pos++
	return s.rows.Row(s.pos - 1), nil
}

// ScanRows streams the matching tuples with their RIDs: the same descent
// and heap reads as Open and Next.
func (s *IndexScan) ScanRows(fn func(rid storage.RID, tu rel.Tuple) error) error {
	rids, err := s.read()
	if err != nil {
		return err
	}
	defer s.Close()
	for i, rid := range rids {
		if err := fn(rid, s.rows.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// Close keeps the rows' block for the next Open to decode over.
func (s *IndexScan) Close() error { return nil }

// --- Filter ---

// Filter passes through tuples satisfying the predicate.
type Filter struct {
	Input Operator
	Pred  Pred
}

// Schema returns the input schema.
func (f *Filter) Schema() *rel.Schema { return f.Input.Schema() }

// Open opens the input.
func (f *Filter) Open() error { return f.Input.Open() }

// Next returns the next satisfying tuple.
func (f *Filter) Next() (rel.Tuple, error) {
	//dkblint:ctxok consumes one tuple of the finite Open-materialized input per iteration; the RunCtx drain observes cancellation
	for {
		tu, err := f.Input.Next()
		if err != nil || tu == nil {
			return nil, err
		}
		if f.Pred.Holds(tu) {
			return tu, nil
		}
	}
}

// Close closes the input.
func (f *Filter) Close() error { return f.Input.Close() }

// ScanRows streams the input's satisfying rows with their RIDs.
func (f *Filter) ScanRows(fn func(rid storage.RID, tu rel.Tuple) error) error {
	return ScanRows(f.Input, func(rid storage.RID, tu rel.Tuple) error {
		if !f.Pred.Holds(tu) {
			return nil
		}
		return fn(rid, tu)
	})
}

// --- Project ---

// Project evaluates scalar expressions over each input tuple.
type Project struct {
	Input Operator
	Exprs []Scalar
	Out   *rel.Schema
	// Borrowed is set by the planner when the consumer copies each row
	// before it asks for the next (a deduplicating set operation): every
	// row is then written into the same buffer.
	Borrowed bool

	out slab
}

// Schema returns the projection's output schema.
func (p *Project) Schema() *rel.Schema { return p.Out }

// Open opens the input and rewinds the slab.
func (p *Project) Open() error {
	p.out.rewind()
	return p.Input.Open()
}

// Next computes the next projected tuple.
func (p *Project) Next() (rel.Tuple, error) {
	tu, err := p.Input.Next()
	if err != nil || tu == nil {
		return nil, err
	}
	out := p.out.next(len(p.Exprs), p.Borrowed)
	for i, e := range p.Exprs {
		out[i] = e.Eval(tu)
	}
	return out, nil
}

// Close closes the input and trims the slab.
func (p *Project) Close() error {
	p.out.trim()
	return p.Input.Close()
}

// --- Nested-loop join (cross product with residual predicate) ---

// NLJoin is a block nested-loop join: the right input is materialized
// once, then streamed per left tuple. The predicate (possibly True for a
// pure cross product) is applied to the concatenated tuple.
type NLJoin struct {
	Left, Right Operator
	Pred        Pred
	Est         float64
	// Borrowed is set by the planner under a Project: every joined row
	// is written into the same buffer (see Project.Borrowed).
	Borrowed bool

	right  []rel.Tuple
	cur    rel.Tuple
	rpos   int
	out    slab
	schema *rel.Schema
}

// Schema returns the concatenated schema.
func (j *NLJoin) Schema() *rel.Schema {
	if j.schema == nil {
		j.schema = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.schema
}

// Open opens both inputs and materializes the right side.
func (j *NLJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	j.out.rewind()
	j.right, j.cur, j.rpos = j.right[:0], nil, 0
	return Run(j.Right, func(tu rel.Tuple) error {
		j.right = append(j.right, tu)
		return nil
	})
}

// Next returns the next joined tuple.
func (j *NLJoin) Next() (rel.Tuple, error) {
	//dkblint:ctxok consumes one left tuple or one inner match per iteration over finite inputs; the RunCtx drain observes cancellation
	for {
		if j.cur == nil {
			tu, err := j.Left.Next()
			if err != nil || tu == nil {
				return nil, err
			}
			j.cur = tu
			j.rpos = 0
		}
		for j.rpos < len(j.right) {
			joined := j.out.concat(j.cur, j.right[j.rpos])
			j.rpos++
			if j.Pred.Holds(joined) {
				return j.out.next(len(joined), j.Borrowed), nil
			}
		}
		j.cur = nil
	}
}

// Close closes the left input (the right is already drained) and trims
// the right rows' list and the slab.
func (j *NLJoin) Close() error {
	j.right = trim(j.right)
	j.out.trim()
	return j.Left.Close()
}

// --- Hash join ---

// HashJoin is an equijoin on LeftOrds = RightOrds with an optional
// residual predicate over the concatenated tuple. One input is hashed
// (the build side: the right one, or the left one when BuildLeft is
// set) and the other streams past it; output tuples are left ++ right
// either way.
type HashJoin struct {
	Left, Right         Operator
	LeftOrds, RightOrds []int
	BuildLeft           bool
	Residual            Pred // True when absent
	Est                 float64
	// Borrowed is set by the planner under a Project: every joined row
	// is written into the same buffer (see Project.Borrowed).
	Borrowed bool

	// The build side: its distinct keys, and per key the chain of rows
	// that have it, in arrival order (chains by key entry, next by row;
	// -1 ends a chain).
	keys   keyTable
	chains []struct{ first, last int32 }
	rows   []rel.Tuple
	next   []int32

	key    []byte // scratch
	cur    rel.Tuple
	match  int32 // next build row to pair with cur, or -1
	out    slab
	schema *rel.Schema
}

// Schema returns the concatenated schema.
func (j *HashJoin) Schema() *rel.Schema {
	if j.schema == nil {
		j.schema = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.schema
}

// sides returns the build and probe inputs with their key ordinals.
func (j *HashJoin) sides() (build, probe Operator, buildOrds, probeOrds []int) {
	if j.BuildLeft {
		return j.Left, j.Right, j.LeftOrds, j.RightOrds
	}
	return j.Right, j.Left, j.RightOrds, j.LeftOrds
}

// Open opens the probe input and builds the hash table from the other.
func (j *HashJoin) Open() error {
	if j.Residual == nil {
		j.Residual = True{}
	}
	build, probe, buildOrds, _ := j.sides()
	if err := probe.Open(); err != nil {
		return err
	}
	j.out.rewind()
	j.keys.reset()
	n := rowsKnown(build)
	j.chains = j.chains[:0]
	j.rows, j.next = slices.Grow(j.rows[:0], n), slices.Grow(j.next[:0], n)
	err := Run(build, func(tu rel.Tuple) error {
		row := int32(len(j.rows))
		j.rows, j.next = append(j.rows, tu), append(j.next, -1)
		j.key = tu.AppendKey(j.key[:0], buildOrds)
		if k, added := j.keys.add(j.key); added {
			j.chains = append(j.chains, struct{ first, last int32 }{row, row})
		} else {
			j.next[j.chains[k].last], j.chains[k].last = row, row
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.cur, j.match = nil, -1
	return nil
}

// Next returns the next joined tuple.
func (j *HashJoin) Next() (rel.Tuple, error) {
	_, probe, _, probeOrds := j.sides()
	//dkblint:ctxok consumes one probe tuple or one bucket match per iteration over finite inputs; the RunCtx drain observes cancellation
	for {
		for j.match >= 0 {
			lt, rt := j.cur, j.rows[j.match]
			if j.BuildLeft {
				lt, rt = rt, lt
			}
			j.match = j.next[j.match]
			joined := j.out.concat(lt, rt)
			if j.Residual.Holds(joined) {
				return j.out.next(len(joined), j.Borrowed), nil
			}
		}
		tu, err := probe.Next()
		if err != nil || tu == nil {
			return nil, err
		}
		j.cur = tu
		j.key = tu.AppendKey(j.key[:0], probeOrds)
		if k := j.keys.find(j.key); k >= 0 {
			j.match = j.chains[k].first
		}
	}
}

// Close closes the probe input and trims the hash table and the slab.
func (j *HashJoin) Close() error {
	j.keys.trim()
	j.chains, j.rows, j.next = trim(j.chains), trim(j.rows), trim(j.next)
	j.out.trim()
	_, probe, _, _ := j.sides()
	return probe.Close()
}

// rowsKnown returns how many rows op will emit when that is known
// before it runs — a bare table scan — and 0 otherwise.
func rowsKnown(op Operator) int {
	switch o := op.(type) {
	case *SeqScan:
		return o.Table.Rows()
	case *countedOp:
		return rowsKnown(o.inner)
	}
	return 0
}

// --- Distinct ---

// Distinct removes duplicate tuples (hash-based).
type Distinct struct {
	Input Operator
	seen  keyTable
	key   []byte // scratch
}

// Schema returns the input schema.
func (d *Distinct) Schema() *rel.Schema { return d.Input.Schema() }

// Open opens the input and resets the seen set.
func (d *Distinct) Open() error {
	d.seen.reset()
	return d.Input.Open()
}

// Next returns the next previously-unseen tuple.
func (d *Distinct) Next() (rel.Tuple, error) {
	//dkblint:ctxok consumes one input tuple per iteration over a finite input; the RunCtx drain observes cancellation
	for {
		tu, err := d.Input.Next()
		if err != nil || tu == nil {
			return nil, err
		}
		d.key = tu.AppendKey(d.key[:0], nil)
		if _, added := d.seen.add(d.key); added {
			return tu, nil
		}
	}
}

// Close closes the input and trims the seen set.
func (d *Distinct) Close() error {
	d.seen.trim()
	return d.Input.Close()
}

// --- Set operations ---

// SetOpKind selects the set operation implemented by SetOpExec.
type SetOpKind int

// Set operation kinds (bag semantics follow SQL: UNION/EXCEPT/INTERSECT
// are duplicate-eliminating; UNION ALL concatenates).
const (
	OpUnion SetOpKind = iota
	OpUnionAll
	OpExcept
	OpIntersect
)

// SetOpExec evaluates Left OP Right. Inputs must be type-compatible.
//
// The deduplicating kinds build a tupleSet from the left input — in the
// LFP round the few derivations of one rule — and stream the right
// input past it as keys, raw stored records when the right input is a
// RecordSource. The right input is read whatever the left holds, so a
// statement costs the same page reads every round. A chain such as
// A EXCEPT B EXCEPT C builds once: the outer operation takes over the
// inner one's set (setSource) instead of re-hashing its output. The
// set holds stored records, so a deduplicating SetOpExec is itself a
// RecordSource: INSERT ... EXCEPT writes them to the heap as they are.
// The set is the operator's own, reset by each execution; whoever reads
// an execution's result last trims it.
type SetOpExec struct {
	Kind        SetOpKind
	Left, Right Operator

	set    *tupleSet
	out    []rel.Tuple
	pos    int
	schema *rel.Schema
}

// Schema returns the left input's schema (SQL convention), resolved
// once: a k-way chain is k operators deep on the left, and every level
// asks.
func (s *SetOpExec) Schema() *rel.Schema {
	if s.schema == nil {
		s.schema = s.Left.Schema()
	}
	return s.schema
}

// Open fully evaluates the set operation (these operators are blocking).
func (s *SetOpExec) Open() error {
	s.pos = 0
	set, err := s.takeSet()
	if err != nil {
		return err
	}
	if set != nil {
		s.out, err = set.live()
		set.trim()
		return err
	}
	// UNION ALL: a bag, nothing to hash.
	s.out = s.out[:0]
	keep := func(tu rel.Tuple) error { s.out = append(s.out, tu); return nil }
	if err := Run(s.Left, keep); err != nil {
		return err
	}
	return Run(s.Right, keep)
}

// ScanRecords evaluates a deduplicating set operation and streams its
// result as the set's records. UNION ALL has none.
func (s *SetOpExec) ScanRecords(fn func(rec []byte) error) (bool, error) {
	if s.Kind == OpUnionAll {
		return false, nil
	}
	set, err := s.takeSet()
	if err != nil {
		return true, err
	}
	err = set.records(fn)
	set.trim()
	return true, err
}

// takeSet evaluates a deduplicating set operation in place of Open and
// hands the result over as a set; UNION ALL, whose result is a bag, has
// none to give.
func (s *SetOpExec) takeSet() (*tupleSet, error) {
	schema := s.Schema()
	if !schema.TypesCompatible(s.Right.Schema()) {
		return nil, fmt.Errorf("exec: set operation over incompatible schemas %v and %v",
			schema, s.Right.Schema())
	}
	if s.Kind == OpUnionAll {
		return nil, nil
	}
	set, err := s.setOf(schema)
	if err != nil {
		return nil, err
	}
	switch s.Kind {
	case OpUnion:
		err = Run(s.Right, set.add)
	case OpExcept, OpIntersect:
		err = set.subtract(s.Right, s.Kind == OpIntersect)
	default:
		err = fmt.Errorf("exec: unknown set operation %d", s.Kind)
	}
	return set, err
}

// Next returns the next result tuple.
func (s *SetOpExec) Next() (rel.Tuple, error) {
	if s.pos >= len(s.out) {
		return nil, nil
	}
	s.pos++
	return s.out[s.pos-1], nil
}

// Close trims the materialized result's list.
func (s *SetOpExec) Close() error {
	s.out = trim(s.out)
	return nil
}

// setSource is implemented by operators whose whole result is a
// tupleSet they can hand over (SetOpExec, and Instrument's wrapper
// around one). A nil set means "drain me instead".
type setSource interface {
	takeSet() (*tupleSet, error)
}

// setOf evaluates the left input, whose schema is schema, into a
// tupleSet: the set of a chained set operation, taken over, or else the
// operator's own, reset.
func (s *SetOpExec) setOf(schema *rel.Schema) (*tupleSet, error) {
	if src, ok := s.Left.(setSource); ok {
		if set, err := src.takeSet(); set != nil || err != nil {
			return set, err
		}
	}
	if s.set == nil {
		s.set = new(tupleSet)
	}
	s.set.reset(schema)
	return s.set, Run(s.Left, s.set.add)
}

// tupleSet is an insertion-ordered set of tuples of one schema, held as
// stored records: entry i of keys is the i-th tuple's key
// (rel.Tuple.AppendKey), which is the record the heap stores. Adding a
// tuple copies it into the key arena and nowhere else. Removing one
// marks its entry, so positions stay valid.
type tupleSet struct {
	schema  *rel.Schema
	keys    keyTable
	removed []bool // by entry
	n       int    // entries not removed
	key     []byte // scratch
	// hit marks, by entry, the keys an INTERSECT's right input found
	// (intersect); probe is the set's probeKey, made once for every
	// execution.
	hit       []bool
	intersect bool
	probe     func(key []byte) error
}

// reset empties the set for an execution over tuples of schema,
// keeping its memory.
func (s *tupleSet) reset(schema *rel.Schema) {
	s.schema = schema
	s.keys.reset()
	s.removed, s.n = s.removed[:0], 0
}

// trim releases the set, leaving it empty, when its keys or removed
// marks are Outgrown by what it holds: called once its result has been
// read.
func (s *tupleSet) trim() {
	s.keys.trim()
	s.removed = trim(s.removed)
	if s.keys.len() != len(s.removed) {
		s.keys, s.removed, s.n = keyTable{}, nil, 0
	}
}

// add inserts tu unless the set holds it.
func (s *tupleSet) add(tu rel.Tuple) error {
	s.key = tu.AppendKey(s.key[:0], nil)
	if i, added := s.keys.add(s.key); added {
		s.removed = append(s.removed, false)
		s.n++
	} else if s.removed[i] {
		s.removed[i] = false
		s.n++
	}
	return nil
}

// find returns the position of the tuple with the given key, or -1.
func (s *tupleSet) find(key []byte) int {
	if i := s.keys.find(key); i >= 0 && !s.removed[i] {
		return i
	}
	return -1
}

// remove removes the tuple at position i.
func (s *tupleSet) remove(i int) {
	if !s.removed[i] {
		s.removed[i] = true
		s.n--
	}
}

// records calls fn with the record of every tuple the set holds, in
// insertion order. rec aliases the set's arena.
func (s *tupleSet) records(fn func(rec []byte) error) error {
	for i, gone := range s.removed {
		if gone {
			continue
		}
		if err := fn(s.keys.key(uint32(i))); err != nil {
			return err
		}
	}
	return nil
}

// live decodes the set's tuples, in insertion order, into one block
// that belongs to the caller: one value slab and one string, the
// decoder's character scratch sized by the records and handed over
// (rel.BlockDecoder.FinishLast), as rel.OwnRows would leave them. A
// record that does not decode under the set's schema — a tuple added
// with a value of another type — is an error.
func (s *tupleSet) live() ([]rel.Tuple, error) {
	if s.n == 0 {
		return nil, nil
	}
	size := 0
	s.records(func(rec []byte) error { size += len(rec); return nil })
	dec := rel.NewBlockDecoder(s.schema)
	dec.Begin(s.n, size)
	if err := s.records(dec.Add); err != nil {
		return nil, fmt.Errorf("exec: set of %v: %w", s.schema, err)
	}
	return blockRows(dec.FinishLast()), nil
}

// subtract removes from the set the tuples the rows of op have — or,
// with intersect, those they do not have — reading op's keys.
func (s *tupleSet) subtract(op Operator, intersect bool) error {
	if s.probe == nil {
		s.probe = s.probeKey
	}
	s.intersect = intersect
	if intersect {
		s.hit = append(s.hit[:0], make([]bool, s.keys.len())...)
	}
	err := s.eachKey(op, s.probe)
	if intersect {
		for i, h := range s.hit {
			if !h {
				s.remove(i)
			}
		}
		s.hit = trim(s.hit)
	}
	return err
}

// probeKey is subtract's step per key: remove the tuple the set holds
// under it, or mark it hit.
func (s *tupleSet) probeKey(key []byte) error {
	if i := s.find(key); i >= 0 && s.intersect {
		s.hit[i] = true
	} else if i >= 0 {
		s.remove(i)
	}
	return nil
}

// eachKey passes the key of every row of op to fn: the stored records
// themselves when op has them, the encoding of each tuple otherwise.
func (s *tupleSet) eachKey(op Operator, fn func(key []byte) error) error {
	raw, err := ScanRecords(op, fn)
	if raw || err != nil {
		return err
	}
	return Run(op, func(tu rel.Tuple) error {
		s.key = tu.AppendKey(s.key[:0], nil)
		return fn(s.key)
	})
}

// --- CountStar ---

var countSchema = rel.MustSchema(rel.Column{Name: "count", Type: rel.TypeInt})

// CountStar counts input tuples and emits a single-row result. A
// RecordSource input is counted record by record, undecoded.
type CountStar struct {
	Input Operator
	n     int64
	done  bool
}

// Schema returns the single-column count schema.
func (c *CountStar) Schema() *rel.Schema { return countSchema }

// Open counts the input.
func (c *CountStar) Open() error {
	c.n, c.done = 0, false
	raw, err := ScanRecords(c.Input, func([]byte) error { c.n++; return nil })
	if raw || err != nil {
		return err
	}
	return Run(c.Input, func(rel.Tuple) error { c.n++; return nil })
}

// Next emits the count on first call.
func (c *CountStar) Next() (rel.Tuple, error) {
	if c.done {
		return nil, nil
	}
	c.done = true
	return rel.Tuple{rel.NewInt(c.n)}, nil
}

// Close is a no-op: Open drained the input.
func (c *CountStar) Close() error { return nil }

// --- Values ---

// Values emits a fixed list of tuples (INSERT ... VALUES source).
type Values struct {
	Rows []rel.Tuple
	Out  *rel.Schema
	pos  int
}

// Schema returns the declared schema.
func (v *Values) Schema() *rel.Schema { return v.Out }

// Open resets the cursor.
func (v *Values) Open() error { v.pos = 0; return nil }

// Next returns the next row.
func (v *Values) Next() (rel.Tuple, error) {
	if v.pos >= len(v.Rows) {
		return nil, nil
	}
	tu := v.Rows[v.pos]
	v.pos++
	return tu, nil
}

// Close is a no-op.
func (v *Values) Close() error { return nil }

package exec

import (
	"context"
	"fmt"
	"slices"

	"dkbms/internal/catalog"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// Operator is one node of a statement's operator tree. ScanRecords runs
// one pass of it: it calls fn with every row the operator emits, in
// order, as a stored record — rel.Tuple.Encode under the operator's
// Schema, the form the heap stores — and returns the first error, fn's
// included. A record is valid only for the call: it aliases a pinned
// heap page or the operator's own buffer, and fn copies what it keeps.
// Nothing in the tree decodes a value; the statement's reader does, at
// most once (db.Stmt.Scan, db.Stmt.Query), or the root writes the
// records as they are (an INSERT).
//
// An operator runs any number of passes, over whatever tables it names
// by then — the planner re-binds a kept tree's tables between
// executions. Between passes it keeps the working memory its last pass
// used (key tables, sets, record arenas) for the next to reuse, and
// releases what that pass outgrew (see mem.go).
//
// Scans and joins carry Est, the planner's estimate of the rows the
// operator emits. Execution ignores it; Instrument reports it beside the
// actual count.
type Operator interface {
	Schema() *rel.Schema
	ScanRecords(fn func(rec []byte) error) error
}

// Count runs one pass of op, a COUNT(*) or Instrument's wrapper of
// one, and returns the count: the pass counts the input's records and
// emits none, so the count is never encoded or decoded. A wrapped
// COUNT(*) is traced as the one row it would have emitted.
func Count(ctx context.Context, op Operator) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	c, _ := op.(*CountStar)
	w, _ := op.(*countedOp)
	if w != nil {
		c, _ = w.inner.(*CountStar)
	}
	if c == nil {
		return 0, fmt.Errorf("exec: %T is not a COUNT(*)", op)
	}
	if w != nil {
		w.c.io.arm()
		w.c.rows++
	}
	err := c.pass()
	return c.n, err
}

// stage is what an operator that passes its input's records on keeps
// for a pass: emit, the pass's consumer, let go of when the pass ends,
// and each, the operator's own method for an input record, made once so
// that a pass allocates no closure.
type stage struct {
	emit, each func([]byte) error
}

// run runs one pass of in, its records going to each while fn consumes
// what the operator emits.
func (s *stage) run(in Operator, fn func([]byte) error) error {
	s.emit = fn
	err := in.ScanRecords(s.each)
	s.emit = nil
	return err
}

// RowSource is the optional interface of operators whose rows are the
// stored tuples of one table — a scan, or a Filter over one — and so
// have an address. DELETE ... WHERE reads its victims through it.
// Instrument's wrapper forwards and counts it.
type RowSource interface {
	// ScanRows calls fn with every row's record and the RID it is
	// stored at; rec aliases a pinned page. fn must not modify the
	// table: an index scan iterates the B+tree's own posting list.
	ScanRows(fn func(rid storage.RID, rec []byte) error) error
}

// ScanRows streams op's rows through fn with their RIDs; op must be a
// RowSource.
func ScanRows(op Operator, fn func(rid storage.RID, rec []byte) error) error {
	src, ok := op.(RowSource)
	if !ok {
		return fmt.Errorf("exec: %T has no stored rows to address", op)
	}
	return src.ScanRows(fn)
}

// --- SeqScan ---

// SeqScan reads every record of a table in one heap pass, a page at a
// time, each page pinned while its records are passed on. The heap
// counts one scan per pass and each page and its live records as they
// are read.
type SeqScan struct {
	Table *catalog.Table
	Est   float64
	// Reads, when set, records that the pass read Table whole.
	Reads *Reads
}

// Schema returns the table schema.
func (s *SeqScan) Schema() *rel.Schema { return s.Table.Schema }

// ScanRecords streams the table's records.
func (s *SeqScan) ScanRecords(fn func(rec []byte) error) error {
	return s.pass().Heap.Scan(func(_ storage.RID, rec []byte) error { return fn(rec) })
}

// ScanRows streams the table's records with their RIDs.
func (s *SeqScan) ScanRows(fn func(rid storage.RID, rec []byte) error) error {
	return s.pass().Heap.Scan(fn)
}

// pass returns the table a pass reads, recording that it reads all of
// it.
func (s *SeqScan) pass() *catalog.Table {
	if s.Reads != nil {
		s.Reads.Whole(s.Table)
	}
	return s.Table
}

// --- IndexScan ---

// IndexScan reads the records whose index key starts with Key (equality
// on a prefix of the index columns): one descent of the index, then a
// heap read per posting. It probes and records its probe as an
// IndexNLJoin does, with the key encoded.
type IndexScan struct {
	Table *catalog.Table
	Index *catalog.Index
	// Key encodes values for the Cols leading index columns, as a
	// stored record encodes them.
	Key  []byte
	Cols int
	Est  float64
	// Reads, when set, records the probe (Reads.Probe).
	Reads *Reads
}

// Schema returns the table schema.
func (s *IndexScan) Schema() *rel.Schema { return s.Table.Schema }

// ScanRecords streams the matching records.
func (s *IndexScan) ScanRecords(fn func(rec []byte) error) error {
	return s.ScanRows(func(_ storage.RID, rec []byte) error { return fn(rec) })
}

// ScanRows streams the matching records with their RIDs.
func (s *IndexScan) ScanRows(fn func(rid storage.RID, rec []byte) error) error {
	if s.Reads != nil {
		s.Reads.Probe(s.Table, s.Index, s.Key, s.Cols)
	}
	return s.Index.Tree.Postings(s.Key, func(rids []storage.RID) error {
		return readAll(s.Table, s.Index, rids, fn)
	})
}

// readAll passes fn each record of t that rids, postings of idx, point
// at, read under its page's pin.
func readAll(t *catalog.Table, idx *catalog.Index, rids []storage.RID, fn func(rid storage.RID, rec []byte) error) error {
	for _, rid := range rids {
		var ferr error
		err := t.Heap.Read(rid, func(rec []byte) error {
			ferr = fn(rid, rec)
			return ferr
		})
		if ferr != nil {
			return ferr
		}
		if err != nil {
			return fmt.Errorf("exec: index %s points at missing record %s: %w", idx.Name, rid, err)
		}
	}
	return nil
}

// --- Filter ---

// Filter passes on the records satisfying the predicate.
type Filter struct {
	Input Operator
	Pred  Pred

	row    rel.Spans
	schema *rel.Schema // the input's, for the pass
	stage
}

// Schema returns the input schema.
func (f *Filter) Schema() *rel.Schema { return f.Input.Schema() }

// ScanRecords streams the input's satisfying records.
func (f *Filter) ScanRecords(fn func(rec []byte) error) error {
	if f.each == nil {
		f.each = f.record
	}
	f.schema = f.Input.Schema()
	err := f.run(f.Input, fn)
	f.row.Clear()
	return err
}

func (f *Filter) record(rec []byte) error {
	if ok, err := f.holds(rec); !ok || err != nil {
		return err
	}
	return f.emit(rec)
}

// holds reads rec and evaluates the predicate over it.
func (f *Filter) holds(rec []byte) (bool, error) {
	if err := f.row.Read(rec, f.schema); err != nil {
		return false, err
	}
	return f.Pred.Holds(&f.row), nil
}

// ScanRows streams the input's satisfying records with their RIDs.
func (f *Filter) ScanRows(fn func(rid storage.RID, rec []byte) error) error {
	f.schema = f.Input.Schema()
	err := ScanRows(f.Input, func(rid storage.RID, rec []byte) error {
		if ok, err := f.holds(rec); !ok || err != nil {
			return err
		}
		return fn(rid, rec)
	})
	f.row.Clear()
	return err
}

// --- Project ---

// Project builds each output record from its input record: the bytes
// of the columns it selects, and the encodings of its constants and
// value parameters, back to back.
type Project struct {
	Input Operator
	Exprs []Scalar
	Out   *rel.Schema

	in     rel.Spans
	schema *rel.Schema // the input's, for the pass
	out    []byte
	stage
}

// Schema returns the projection's output schema.
func (p *Project) Schema() *rel.Schema { return p.Out }

// ScanRecords streams the projected records.
func (p *Project) ScanRecords(fn func(rec []byte) error) error {
	if p.each == nil {
		p.each = p.record
	}
	p.schema = p.Input.Schema()
	err := p.run(p.Input, fn)
	p.in.Clear()
	return err
}

func (p *Project) record(rec []byte) error {
	if err := p.in.Read(rec, p.schema); err != nil {
		return err
	}
	out := p.out[:0]
	for _, e := range p.Exprs {
		out = e.Append(out, &p.in)
	}
	p.out = out
	return p.emit(out)
}

// --- joins ---

// joined is a join's output buffer and the residual predicate's reader
// of it: every joined record is left ++ right, written over the last.
type joined struct {
	out    []byte
	row    rel.Spans
	schema *rel.Schema
}

// emit writes left ++ right and passes it to fn if pred holds of it
// (nil: no predicate).
func (j *joined) emit(left, right []byte, pred Pred, fn func([]byte) error) error {
	j.out = append(append(j.out[:0], left...), right...)
	if pred != nil {
		if err := j.row.Read(j.out, j.schema); err != nil {
			return err
		}
		if !pred.Holds(&j.row) {
			return nil
		}
	}
	return fn(j.out)
}

// residual returns p, nil when it is absent or True.
func residual(p Pred) Pred {
	if _, ok := p.(True); ok {
		return nil
	}
	return p
}

// concat returns the schema of left ++ right, keeping *cached when it
// is already that.
func concat(cached **rel.Schema, left, right *rel.Schema) *rel.Schema {
	if *cached == nil {
		*cached = left.Concat(right)
	}
	return *cached
}

// --- Nested-loop join (cross product with residual predicate) ---

// NLJoin is a nested-loop join: the right input's records are copied
// into one list once a pass, then each left record is paired with every
// one of them. The predicate (possibly True for a pure cross product)
// is applied to the joined record.
type NLJoin struct {
	Left, Right Operator
	Pred        Pred
	Est         float64

	right rel.Records
	j     joined
	pred  Pred
	keep  func([]byte) error // right.Add, made once
	stage
}

// Schema returns the concatenated schema.
func (j *NLJoin) Schema() *rel.Schema {
	return concat(&j.j.schema, j.Left.Schema(), j.Right.Schema())
}

// ScanRecords materializes the right input and streams the joined
// records.
func (j *NLJoin) ScanRecords(fn func(rec []byte) error) error {
	j.Schema()
	j.pred = residual(j.Pred)
	armFirst(j.Left)
	j.right.Reset()
	if j.keep == nil {
		j.keep = j.right.Add
	}
	if j.each == nil {
		j.each = j.record
	}
	err := j.Right.ScanRecords(j.keep)
	if err == nil {
		err = j.run(j.Left, fn)
	}
	j.right.Trim()
	j.j.row.Clear()
	return err
}

func (j *NLJoin) record(left []byte) error {
	return j.right.Each(func(right []byte) error { return j.j.emit(left, right, j.pred, j.emit) })
}

// --- Hash join ---

// HashJoin is an equijoin on LeftOrds = RightOrds with an optional
// residual predicate over the joined record. One input is hashed (the
// build side: the right one, or the left one when BuildLeft is set):
// its records are copied into one arena, keyed by the bytes of their
// key columns. The other streams past it; output records are left ++
// right either way.
type HashJoin struct {
	Left, Right         Operator
	LeftOrds, RightOrds []int
	BuildLeft           bool
	Residual            Pred // True when absent
	Est                 float64

	// The build side: its records back to back in arena (record i ends
	// at ends[i]), its distinct keys, and per key the chain of records
	// that have it, in arrival order (chains by key entry, next by
	// record; -1 ends a chain).
	arena  []byte
	ends   []uint32
	keys   keyTable
	chains []struct{ first, last int32 }
	next   []int32

	side     rel.Spans // the build or probe record being keyed
	key      []byte    // scratch for a key of several columns
	j        joined
	pred     Pred
	bs, ps   *rel.Schema        // the build and probe inputs', for the pass
	addBuild func([]byte) error // add, made once; each is probe
	stage
}

// Schema returns the concatenated schema.
func (j *HashJoin) Schema() *rel.Schema {
	return concat(&j.j.schema, j.Left.Schema(), j.Right.Schema())
}

// sides returns the build and probe inputs with their key ordinals.
func (j *HashJoin) sides() (build, probe Operator, buildOrds, probeOrds []int) {
	if j.BuildLeft {
		return j.Left, j.Right, j.LeftOrds, j.RightOrds
	}
	return j.Right, j.Left, j.RightOrds, j.LeftOrds
}

// ScanRecords builds the hash table from one input and streams the
// other past it.
func (j *HashJoin) ScanRecords(fn func(rec []byte) error) error {
	j.Schema()
	j.pred = residual(j.Residual)
	build, probe, _, _ := j.sides()
	armFirst(probe)
	j.keys.reset()
	n, size := sizeKnown(build)
	j.arena, j.ends = slices.Grow(j.arena[:0], size), slices.Grow(j.ends[:0], n)
	j.chains, j.next = j.chains[:0], slices.Grow(j.next[:0], n)
	if j.addBuild == nil {
		j.addBuild, j.each = j.add, j.probe
	}
	j.bs, j.ps = build.Schema(), probe.Schema()
	err := build.ScanRecords(j.addBuild)
	if err == nil {
		err = j.run(probe, fn)
	}
	j.keys.trim()
	j.arena, j.ends, j.chains, j.next = trim(j.arena), trim(j.ends), trim(j.chains), trim(j.next)
	j.side.Clear()
	j.j.row.Clear()
	return err
}

// keyOf reads rec, a record of schema, and returns its key: the bytes
// of its key columns, in place when there is one.
func (j *HashJoin) keyOf(rec []byte, schema *rel.Schema, ords []int) ([]byte, error) {
	if err := j.side.Read(rec, schema); err != nil {
		return nil, err
	}
	if len(ords) == 1 {
		return j.side.Col(ords[0]), nil
	}
	j.key = j.side.AppendCols(j.key[:0], ords)
	return j.key, nil
}

// add copies a build record into the arena and chains it under its key.
func (j *HashJoin) add(rec []byte) error {
	_, _, ords, _ := j.sides()
	key, err := j.keyOf(rec, j.bs, ords)
	if err != nil {
		return err
	}
	row := int32(len(j.ends))
	j.arena = append(j.arena, rec...)
	j.ends, j.next = append(j.ends, uint32(len(j.arena))), append(j.next, -1)
	if k, added := j.keys.add(key); added {
		j.chains = append(j.chains, struct{ first, last int32 }{row, row})
	} else {
		j.next[j.chains[k].last], j.chains[k].last = row, row
	}
	return nil
}

// probe joins a probe record with the build records of its key.
func (j *HashJoin) probe(rec []byte) error {
	_, _, _, ords := j.sides()
	key, err := j.keyOf(rec, j.ps, ords)
	if err != nil {
		return err
	}
	k := j.keys.find(key)
	if k < 0 {
		return nil
	}
	for m := j.chains[k].first; m >= 0; m = j.next[m] {
		start := uint32(0)
		if m > 0 {
			start = j.ends[m-1]
		}
		left, right := rec, j.arena[start:j.ends[m]]
		if j.BuildLeft {
			left, right = right, left
		}
		if err := j.j.emit(left, right, j.pred, j.emit); err != nil {
			return err
		}
	}
	return nil
}

// sizeKnown returns how many records op will emit, and their length
// together, when that is known before it runs — a bare table scan —
// and 0, 0 otherwise.
func sizeKnown(op Operator) (rows, bytes int) {
	switch o := op.(type) {
	case *SeqScan:
		return o.Table.Rows(), o.Table.Bytes()
	case *countedOp:
		return sizeKnown(o.inner)
	}
	return 0, 0
}

// --- Distinct ---

// Distinct passes on each record the first time it arrives.
type Distinct struct {
	Input Operator
	seen  keyTable
	stage
}

// Schema returns the input schema.
func (d *Distinct) Schema() *rel.Schema { return d.Input.Schema() }

// ScanRecords streams the input's distinct records.
func (d *Distinct) ScanRecords(fn func(rec []byte) error) error {
	if d.each == nil {
		d.each = d.record
	}
	d.seen.reset()
	err := d.run(d.Input, fn)
	d.seen.trim()
	return err
}

func (d *Distinct) record(rec []byte) error {
	if _, added := d.seen.add(rec); !added {
		return nil
	}
	return d.emit(rec)
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
// The deduplicating kinds build a tupleSet from the left input's
// records — in the LFP round the few derivations of one rule — and
// stream the right input's records past it. The right input is read
// whatever the left holds, so a statement costs the same page reads
// every round. A chain such as A EXCEPT B EXCEPT C builds once: the
// outer operation takes over the inner one's set (setSource) instead of
// re-hashing its output. The set is the operator's own, reset by each
// pass; whoever reads a pass's result last trims it. UNION ALL streams
// one input's records, then the other's.
type SetOpExec struct {
	Kind        SetOpKind
	Left, Right Operator

	set    *tupleSet
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

// ScanRecords evaluates the set operation and streams its result: a
// deduplicating one's set, in the order its records arrived.
func (s *SetOpExec) ScanRecords(fn func(rec []byte) error) error {
	set, err := s.takeSet()
	if err != nil {
		return err
	}
	if set == nil {
		// UNION ALL: a bag, nothing to hash.
		if err := s.Left.ScanRecords(fn); err != nil {
			return err
		}
		return s.Right.ScanRecords(fn)
	}
	err = set.records(fn)
	set.trim()
	return err
}

// takeSet evaluates a deduplicating set operation and hands the result
// over as a set; UNION ALL, whose result is a bag, has none to give.
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
		err = s.Right.ScanRecords(set.adder())
	case OpExcept, OpIntersect:
		err = set.subtract(s.Right, s.Kind == OpIntersect)
	default:
		err = fmt.Errorf("exec: unknown set operation %d", s.Kind)
	}
	return set, err
}

// setSource is implemented by operators whose whole result is a
// tupleSet they can hand over (SetOpExec, and Instrument's wrapper
// around one). A nil set means "scan me instead".
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
	return s.set, s.Left.ScanRecords(s.set.adder())
}

// tupleSet is an insertion-ordered set of the records of one schema:
// entry i of keys is the i-th record, which is its tuple's key
// (rel.Tuple.AppendKey). Adding a record copies it into the key arena
// and nowhere else. Removing one marks its entry, so positions stay
// valid.
type tupleSet struct {
	schema  *rel.Schema
	keys    keyTable
	removed []bool // by entry
	n       int    // entries not removed
	// hit marks, by entry, the records an INTERSECT's right input found
	// (intersect). add and probe are the set's own add and probeKey,
	// made once for every execution.
	hit        []bool
	intersect  bool
	add, probe func(rec []byte) error
}

// reset empties the set for an execution over records of schema,
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

// adder returns the set's add.
func (s *tupleSet) adder() func(rec []byte) error {
	if s.add == nil {
		s.add = s.addRecord
	}
	return s.add
}

// addRecord inserts rec unless the set holds it.
func (s *tupleSet) addRecord(rec []byte) error {
	if i, added := s.keys.add(rec); added {
		s.removed = append(s.removed, false)
		s.n++
	} else if s.removed[i] {
		s.removed[i] = false
		s.n++
	}
	return nil
}

// find returns the position of the record, or -1.
func (s *tupleSet) find(rec []byte) int {
	if i := s.keys.find(rec); i >= 0 && !s.removed[i] {
		return i
	}
	return -1
}

// remove removes the record at position i.
func (s *tupleSet) remove(i int) {
	if !s.removed[i] {
		s.removed[i] = true
		s.n--
	}
}

// records calls fn with every record the set holds, in insertion
// order. rec aliases the set's arena.
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

// subtract removes from the set the records op emits — or, with
// intersect, those it does not.
func (s *tupleSet) subtract(op Operator, intersect bool) error {
	if s.probe == nil {
		s.probe = s.probeKey
	}
	s.intersect = intersect
	if intersect {
		s.hit = append(s.hit[:0], make([]bool, s.keys.len())...)
	}
	err := op.ScanRecords(s.probe)
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

// probeKey is subtract's step per record: remove the record the set
// holds, or mark it hit.
func (s *tupleSet) probeKey(rec []byte) error {
	if i := s.find(rec); i >= 0 && s.intersect {
		s.hit[i] = true
	} else if i >= 0 {
		s.remove(i)
	}
	return nil
}

// --- CountStar ---

var countSchema = rel.MustSchema(rel.Column{Name: "count", Type: rel.TypeInt})

// CountStar counts its input's records and emits a single-row result.
type CountStar struct {
	Input Operator
	n     int64
	rec   []byte
	count func([]byte) error
}

// Schema returns the single-column count schema.
func (c *CountStar) Schema() *rel.Schema { return countSchema }

// ScanRecords counts the input and emits the count.
func (c *CountStar) ScanRecords(fn func(rec []byte) error) error {
	if err := c.pass(); err != nil {
		return err
	}
	c.rec = rel.NewInt(c.n).AppendKey(c.rec[:0])
	return fn(c.rec)
}

// pass counts the input's records into c.n.
func (c *CountStar) pass() error {
	if c.count == nil {
		c.count = c.inc
	}
	c.n = 0
	return c.Input.ScanRecords(c.count)
}

func (c *CountStar) inc([]byte) error { c.n++; return nil }

// --- Values ---

// Values emits a fixed list of tuples (INSERT ... VALUES source), each
// encoded as it is emitted.
type Values struct {
	Rows []rel.Tuple
	Out  *rel.Schema
	rec  []byte
}

// Schema returns the declared schema.
func (v *Values) Schema() *rel.Schema { return v.Out }

// ScanRecords streams the rows' records.
func (v *Values) ScanRecords(fn func(rec []byte) error) error {
	for _, tu := range v.Rows {
		v.rec = tu.Encode(v.rec[:0])
		if err := fn(v.rec); err != nil {
			return err
		}
	}
	return nil
}

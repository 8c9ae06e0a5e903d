package exec

import (
	"context"
	"fmt"

	"dkbms/internal/catalog"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// Operator is a Volcano-style iterator. The contract is Open, then Next
// until it returns a nil tuple, then Close. Operators are single-use.
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
// between tuples like RunCtx.
func CollectCtx(ctx context.Context, op Operator) ([]rel.Tuple, error) {
	var out []rel.Tuple
	err := RunCtx(ctx, op, func(tu rel.Tuple) error {
		out = append(out, tu)
		return nil
	})
	return out, err
}

// --- SeqScan ---

// SeqScan reads every tuple of a table. The scan materializes RIDs lazily
// page by page via the heap iterator.
type SeqScan struct {
	Table *catalog.Table
	Est   float64

	tuples []rel.Tuple
	pos    int
}

// Schema returns the table schema.
func (s *SeqScan) Schema() *rel.Schema { return s.Table.Schema }

// Open materializes the snapshot of the table. Materializing up front
// gives statement-level snapshot semantics: a statement that reads and
// writes the same table (INSERT INTO t SELECT ... FROM t) sees the state
// as of Open.
func (s *SeqScan) Open() error {
	s.tuples = s.tuples[:0]
	s.pos = 0
	return s.Table.Scan(func(_ storage.RID, tu rel.Tuple) error {
		s.tuples = append(s.tuples, tu)
		return nil
	})
}

// Next returns the next tuple or nil.
func (s *SeqScan) Next() (rel.Tuple, error) {
	if s.pos >= len(s.tuples) {
		return nil, nil
	}
	tu := s.tuples[s.pos]
	s.pos++
	return tu, nil
}

// Close releases the snapshot.
func (s *SeqScan) Close() error {
	s.tuples = nil
	return nil
}

// --- IndexScan ---

// IndexScan reads tuples whose index key starts with Key (equality on a
// prefix of the index columns).
type IndexScan struct {
	Table *catalog.Table
	Index *catalog.Index
	Key   rel.Tuple // prefix values for the leading index columns
	Est   float64

	rids []storage.RID
	pos  int
}

// Schema returns the table schema.
func (s *IndexScan) Schema() *rel.Schema { return s.Table.Schema }

// Open performs the index lookup.
func (s *IndexScan) Open() error {
	if len(s.Key) == len(s.Index.Ords) {
		s.rids = s.Index.Lookup(s.Key)
	} else {
		s.rids = s.Index.LookupPrefix(s.Key)
	}
	s.pos = 0
	return nil
}

// Next fetches the next matching tuple from the heap.
func (s *IndexScan) Next() (rel.Tuple, error) {
	if s.pos >= len(s.rids) {
		return nil, nil
	}
	rid := s.rids[s.pos]
	s.pos++
	tu, err := s.Table.Get(rid)
	if err != nil {
		return nil, fmt.Errorf("exec: index %s points at missing record %s: %w", s.Index.Name, rid, err)
	}
	return tu, nil
}

// Close releases the posting list.
func (s *IndexScan) Close() error {
	s.rids = nil
	return nil
}

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

// --- Project ---

// Project evaluates scalar expressions over each input tuple.
type Project struct {
	Input Operator
	Exprs []Scalar
	Out   *rel.Schema
}

// Schema returns the projection's output schema.
func (p *Project) Schema() *rel.Schema { return p.Out }

// Open opens the input.
func (p *Project) Open() error { return p.Input.Open() }

// Next computes the next projected tuple.
func (p *Project) Next() (rel.Tuple, error) {
	tu, err := p.Input.Next()
	if err != nil || tu == nil {
		return nil, err
	}
	out := make(rel.Tuple, len(p.Exprs))
	for i, e := range p.Exprs {
		out[i] = e.Eval(tu)
	}
	return out, nil
}

// Close closes the input.
func (p *Project) Close() error { return p.Input.Close() }

// --- Nested-loop join (cross product with residual predicate) ---

// NLJoin is a block nested-loop join: the right input is materialized
// once, then streamed per left tuple. The predicate (possibly True for a
// pure cross product) is applied to the concatenated tuple.
type NLJoin struct {
	Left, Right Operator
	Pred        Pred
	Est         float64

	right  []rel.Tuple
	cur    rel.Tuple
	rpos   int
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
	var err error
	j.right, err = Collect(j.Right)
	if err != nil {
		return err
	}
	j.cur = nil
	j.rpos = 0
	return nil
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
			rt := j.right[j.rpos]
			j.rpos++
			joined := make(rel.Tuple, 0, len(j.cur)+len(rt))
			joined = append(joined, j.cur...)
			joined = append(joined, rt...)
			if j.Pred.Holds(joined) {
				return joined, nil
			}
		}
		j.cur = nil
	}
}

// Close closes the left input (the right is already drained).
func (j *NLJoin) Close() error {
	j.right = nil
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

	table   map[string][]rel.Tuple
	cur     rel.Tuple
	matches []rel.Tuple
	mpos    int
	schema  *rel.Schema
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
	j.table = make(map[string][]rel.Tuple)
	err := Run(build, func(tu rel.Tuple) error {
		k := tu.KeyOf(buildOrds)
		j.table[k] = append(j.table[k], tu)
		return nil
	})
	if err != nil {
		return err
	}
	j.cur = nil
	j.matches = nil
	j.mpos = 0
	return nil
}

// Next returns the next joined tuple.
func (j *HashJoin) Next() (rel.Tuple, error) {
	_, probe, _, probeOrds := j.sides()
	//dkblint:ctxok consumes one probe tuple or one bucket match per iteration over finite inputs; the RunCtx drain observes cancellation
	for {
		for j.mpos < len(j.matches) {
			lt, rt := j.cur, j.matches[j.mpos]
			if j.BuildLeft {
				lt, rt = rt, lt
			}
			j.mpos++
			joined := make(rel.Tuple, 0, len(lt)+len(rt))
			joined = append(joined, lt...)
			joined = append(joined, rt...)
			if j.Residual.Holds(joined) {
				return joined, nil
			}
		}
		tu, err := probe.Next()
		if err != nil || tu == nil {
			return nil, err
		}
		j.cur = tu
		j.matches = j.table[tu.KeyOf(probeOrds)]
		j.mpos = 0
	}
}

// Close closes the probe input and releases the hash table.
func (j *HashJoin) Close() error {
	j.table = nil
	_, probe, _, _ := j.sides()
	return probe.Close()
}

// --- Distinct ---

// Distinct removes duplicate tuples (hash-based).
type Distinct struct {
	Input Operator
	seen  map[string]struct{}
}

// Schema returns the input schema.
func (d *Distinct) Schema() *rel.Schema { return d.Input.Schema() }

// Open opens the input and resets the seen set.
func (d *Distinct) Open() error {
	d.seen = make(map[string]struct{})
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
		k := tu.Key()
		if _, dup := d.seen[k]; dup {
			continue
		}
		d.seen[k] = struct{}{}
		return tu, nil
	}
}

// Close closes the input.
func (d *Distinct) Close() error {
	d.seen = nil
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
type SetOpExec struct {
	Kind        SetOpKind
	Left, Right Operator

	out []rel.Tuple
	pos int
}

// Schema returns the left input's schema (SQL convention).
func (s *SetOpExec) Schema() *rel.Schema { return s.Left.Schema() }

// Open fully evaluates the set operation (these operators are blocking).
func (s *SetOpExec) Open() error {
	if !s.Left.Schema().TypesCompatible(s.Right.Schema()) {
		return fmt.Errorf("exec: set operation over incompatible schemas %v and %v",
			s.Left.Schema(), s.Right.Schema())
	}
	s.out = s.out[:0]
	s.pos = 0
	switch s.Kind {
	case OpUnionAll:
		err := Run(s.Left, func(tu rel.Tuple) error { s.out = append(s.out, tu); return nil })
		if err != nil {
			return err
		}
		return Run(s.Right, func(tu rel.Tuple) error { s.out = append(s.out, tu); return nil })
	case OpUnion:
		seen := make(map[string]struct{})
		add := func(tu rel.Tuple) error {
			k := tu.Key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				s.out = append(s.out, tu)
			}
			return nil
		}
		if err := Run(s.Left, add); err != nil {
			return err
		}
		return Run(s.Right, add)
	case OpExcept:
		drop := make(map[string]struct{})
		if err := Run(s.Right, func(tu rel.Tuple) error {
			drop[tu.Key()] = struct{}{}
			return nil
		}); err != nil {
			return err
		}
		seen := make(map[string]struct{})
		return Run(s.Left, func(tu rel.Tuple) error {
			k := tu.Key()
			if _, excluded := drop[k]; excluded {
				return nil
			}
			if _, dup := seen[k]; dup {
				return nil
			}
			seen[k] = struct{}{}
			s.out = append(s.out, tu)
			return nil
		})
	case OpIntersect:
		keep := make(map[string]struct{})
		if err := Run(s.Right, func(tu rel.Tuple) error {
			keep[tu.Key()] = struct{}{}
			return nil
		}); err != nil {
			return err
		}
		seen := make(map[string]struct{})
		return Run(s.Left, func(tu rel.Tuple) error {
			k := tu.Key()
			if _, present := keep[k]; !present {
				return nil
			}
			if _, dup := seen[k]; dup {
				return nil
			}
			seen[k] = struct{}{}
			s.out = append(s.out, tu)
			return nil
		})
	}
	return fmt.Errorf("exec: unknown set operation %d", s.Kind)
}

// Next returns the next result tuple.
func (s *SetOpExec) Next() (rel.Tuple, error) {
	if s.pos >= len(s.out) {
		return nil, nil
	}
	tu := s.out[s.pos]
	s.pos++
	return tu, nil
}

// Close releases the materialized result.
func (s *SetOpExec) Close() error {
	s.out = nil
	return nil
}

// --- CountStar ---

var countSchema = rel.MustSchema(rel.Column{Name: "count", Type: rel.TypeInt})

// CountStar counts input tuples and emits a single-row result.
type CountStar struct {
	Input Operator
	done  bool
}

// Schema returns the single-column count schema.
func (c *CountStar) Schema() *rel.Schema { return countSchema }

// Open opens the input.
func (c *CountStar) Open() error {
	c.done = false
	return c.Input.Open()
}

// Next counts the input on first call.
func (c *CountStar) Next() (rel.Tuple, error) {
	if c.done {
		return nil, nil
	}
	n := int64(0)
	//dkblint:ctxok counts a finite Open-materialized input; bounded by input size
	for {
		tu, err := c.Input.Next()
		if err != nil {
			return nil, err
		}
		if tu == nil {
			break
		}
		n++
	}
	c.done = true
	return rel.Tuple{rel.NewInt(n)}, nil
}

// Close closes the input.
func (c *CountStar) Close() error { return c.Input.Close() }

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

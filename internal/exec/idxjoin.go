package exec

import (
	"fmt"

	"dkbms/internal/catalog"
	"dkbms/internal/rel"
)

// IndexNLJoin is an index nested-loop join: for each tuple of the outer
// (left) input it probes a B+tree index of the inner table, fetching
// only matching rows. When the outer side is small this touches a
// number of inner rows proportional to the result, not to the inner
// table — the property behind the paper's finding that relevant-rule
// extraction time is independent of the total stored-rule count (Fig 7).
//
// The outer input is read a batch at a time — one tuple, then two, four,
// … up to maxProbeBatch — and the matches of a whole batch are decoded
// into one block, so the inner rows cost one string per batch, not one
// per probe, and their values a slab that every batch, and the next
// execution, reuses.
type IndexNLJoin struct {
	Left     Operator
	Right    *catalog.Table
	Index    *catalog.Index
	LeftOrds []int // ordinals in the left output forming the probe key,
	// aligned with the index's leading columns
	Residual Pred // nil/True when absent
	Est      float64
	// Borrowed is set by the planner under a Project: every joined row
	// is written into the same buffer (see Project.Borrowed).
	Borrowed bool

	// batch holds the outer tuples being joined; the matches of batch[i]
	// are the rows of matches before batch[i].end and after those of
	// batch[i-1]. The next batch's matches overwrite these: they have
	// been copied into joined tuples by then.
	batch    []probe
	matches  rel.Block
	bi, mi   int32 // the next candidate pairs batch[bi] with matches row mi
	leftDone bool
	dec      rel.BlockDecoder
	// peak is the most values one batch's matches took this execution.
	peak   int
	out    slab
	schema *rel.Schema
}

type probe struct {
	outer rel.Tuple
	end   int32
}

const maxProbeBatch = 64

// Schema returns the concatenated schema.
func (j *IndexNLJoin) Schema() *rel.Schema {
	if j.schema == nil {
		j.schema = j.Left.Schema().Concat(j.Right.Schema)
	}
	return j.schema
}

// Open opens the outer input.
func (j *IndexNLJoin) Open() error {
	if j.Residual == nil {
		j.Residual = True{}
	}
	if len(j.LeftOrds) == 0 || len(j.LeftOrds) > len(j.Index.Ords) {
		return fmt.Errorf("exec: index join key width %d does not fit index %s", len(j.LeftOrds), j.Index.Name)
	}
	j.batch, j.bi, j.mi, j.leftDone, j.peak = j.batch[:0], 0, 0, false, 0
	decoderFor(&j.dec, j.Right.Schema)
	j.out.rewind()
	return j.Left.Open()
}

// Next returns the next joined tuple.
func (j *IndexNLJoin) Next() (rel.Tuple, error) {
	//dkblint:ctxok consumes one outer batch or one index posting per iteration over finite inputs; the RunCtx drain observes cancellation
	for {
		for ; int(j.bi) < len(j.batch); j.bi++ {
			for p := j.batch[j.bi]; j.mi < p.end; {
				joined := j.out.concat(p.outer, j.matches.Row(int(j.mi)))
				j.mi++
				if j.Residual.Holds(joined) {
					return j.out.next(len(joined), j.Borrowed), nil
				}
			}
		}
		if j.leftDone {
			return nil, nil
		}
		if err := j.probeBatch(); err != nil {
			return nil, err
		}
	}
}

// probeBatch reads the next batch of outer tuples, twice as many as the
// last, and decodes the inner rows their keys find.
func (j *IndexNLJoin) probeBatch() error {
	size := min(max(2*len(j.batch), 1), maxProbeBatch)
	j.batch, j.bi, j.mi = j.batch[:0], 0, 0
	j.dec.BeginOver(j.matches)
	for len(j.batch) < size {
		tu, err := j.Left.Next()
		if err != nil {
			return err
		}
		if tu == nil {
			j.leftDone = true
			break
		}
		var buf [4]rel.Value // keys are short: the probe key stays on the stack
		key := rel.Tuple(buf[:0])
		for _, o := range j.LeftOrds {
			key = append(key, tu[o])
		}
		if err := j.Right.AddRows(&j.dec, indexLookup(j.Index, key)); err != nil {
			return fmt.Errorf("exec: index %s points at missing %w", j.Index.Name, err)
		}
		j.batch = append(j.batch, probe{tu, int32(j.dec.Rows())})
	}
	j.matches = j.dec.Finish()
	j.peak = max(j.peak, j.matches.Len()*j.Right.Schema.Len())
	return nil
}

// Close closes the outer input and trims the matches' slab and the
// output slab; the batch holds at most maxProbeBatch outer rows.
func (j *IndexNLJoin) Close() error {
	if rel.Outgrown(j.matches.Cap()*rel.ValueSize, j.peak*rel.ValueSize) {
		j.matches = rel.Block{}
	}
	j.out.trim()
	return j.Left.Close()
}

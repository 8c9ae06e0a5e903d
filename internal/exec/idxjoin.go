package exec

import (
	"fmt"

	"dkbms/internal/catalog"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// IndexNLJoin is an index nested-loop join: for each tuple of the outer
// (left) input it probes a B+tree index of the inner table, fetching
// only matching rows. When the outer side is small this touches a
// number of inner rows proportional to the result, not to the inner
// table — the property behind the paper's finding that relevant-rule
// extraction time is independent of the total stored-rule count (Fig 7).
type IndexNLJoin struct {
	Left     Operator
	Right    *catalog.Table
	Index    *catalog.Index
	LeftOrds []int // ordinals in the left output forming the probe key,
	// aligned with the index's leading columns
	Residual Pred // nil/True when absent
	Est      float64

	cur     rel.Tuple
	matches []rel.Tuple
	mpos    int
	schema  *rel.Schema
}

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
	j.cur = nil
	j.matches = nil
	j.mpos = 0
	return j.Left.Open()
}

// Next returns the next joined tuple.
func (j *IndexNLJoin) Next() (rel.Tuple, error) {
	//dkblint:ctxok consumes one left tuple or one index posting per iteration over finite inputs; the RunCtx drain observes cancellation
	for {
		for j.mpos < len(j.matches) {
			rt := j.matches[j.mpos]
			j.mpos++
			joined := make(rel.Tuple, 0, len(j.cur)+len(rt))
			joined = append(joined, j.cur...)
			joined = append(joined, rt...)
			if j.Residual.Holds(joined) {
				return joined, nil
			}
		}
		tu, err := j.Left.Next()
		if err != nil || tu == nil {
			return nil, err
		}
		j.cur = tu
		key := make(rel.Tuple, len(j.LeftOrds))
		for i, o := range j.LeftOrds {
			key[i] = tu[o]
		}
		var postings []storage.RID
		if len(key) == len(j.Index.Ords) {
			postings = j.Index.Lookup(key)
		} else {
			postings = j.Index.LookupPrefix(key)
		}
		j.matches = j.matches[:0]
		for _, rid := range postings {
			rt, err := j.Right.Get(rid)
			if err != nil {
				return nil, fmt.Errorf("exec: index %s points at missing record %s: %w", j.Index.Name, rid, err)
			}
			j.matches = append(j.matches, rt)
		}
		j.mpos = 0
	}
}

// Close closes the outer input.
func (j *IndexNLJoin) Close() error { return j.Left.Close() }

package exec

import (
	"fmt"

	"dkbms/internal/catalog"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// IndexNLJoin is an index nested-loop join: for each record of the
// outer (left) input it probes a B+tree index of the inner table,
// fetching only matching records. When the outer side is small this
// touches a number of inner rows proportional to the result, not to the
// inner table — the property behind the paper's finding that
// relevant-rule extraction time is independent of the total stored-rule
// count (Fig 7).
//
// A probe key is the bytes of the outer record's key columns, which are
// the index's key encoding: nothing is decoded. Each inner record is
// read under its page's pin and joined as it is read.
type IndexNLJoin struct {
	Left     Operator
	Right    *catalog.Table
	Index    *catalog.Index
	LeftOrds []int // ordinals in the left output forming the probe key,
	// aligned with the index's leading columns
	Residual Pred // nil/True when absent
	Est      float64
	// Reads, when set, records every probe (Reads.Probe).
	Reads *Reads

	outer  rel.Spans   // the outer record being joined
	ls     *rel.Schema // the outer input's, for the pass
	key    []byte      // scratch for a key of several columns
	j      joined
	pred   Pred
	joinFn func(rid storage.RID, rec []byte) error // join, made once
	stage
}

// Schema returns the concatenated schema.
func (j *IndexNLJoin) Schema() *rel.Schema {
	return concat(&j.j.schema, j.Left.Schema(), j.Right.Schema)
}

// ScanRecords streams the joined records.
func (j *IndexNLJoin) ScanRecords(fn func(rec []byte) error) error {
	if len(j.LeftOrds) == 0 || len(j.LeftOrds) > len(j.Index.Ords) {
		return fmt.Errorf("exec: index join key width %d does not fit index %s", len(j.LeftOrds), j.Index.Name)
	}
	j.ls = j.Left.Schema()
	for i, o := range j.LeftOrds {
		if j.ls.Col(o).Type != j.Right.Schema.Col(j.Index.Ords[i]).Type {
			return fmt.Errorf("exec: index join key column %d is not of index %s's type", o, j.Index.Name)
		}
	}
	j.Schema()
	j.pred = residual(j.Residual)
	if j.each == nil {
		j.each, j.joinFn = j.probe, j.join
	}
	err := j.run(j.Left, fn)
	j.outer.Clear()
	j.j.row.Clear()
	return err
}

// probe joins an outer record with the inner records its key finds.
func (j *IndexNLJoin) probe(rec []byte) error {
	if err := j.outer.Read(rec, j.ls); err != nil {
		return err
	}
	key := j.outer.Col(j.LeftOrds[0])
	if len(j.LeftOrds) > 1 {
		j.key = j.outer.AppendCols(j.key[:0], j.LeftOrds)
		key = j.key
	}
	if j.Reads != nil {
		j.Reads.Probe(j.Right, j.Index, key, len(j.LeftOrds))
	}
	return j.Index.Tree.Postings(key, func(rids []storage.RID) error {
		return readAll(j.Right, j.Index, rids, j.joinFn)
	})
}

// join emits the outer record being probed ++ an inner record.
func (j *IndexNLJoin) join(_ storage.RID, inner []byte) error {
	return j.j.emit(j.outer.Record(), inner, j.pred, j.emit)
}

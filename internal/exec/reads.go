package exec

import (
	"slices"

	"dkbms/internal/catalog"
)

// Reads records what an evaluation reads of the published table
// versions its operators are bound to, for the plan cache to decide
// which commits leave a memoized answer standing. The planner binds it
// to every scan and index join over a frozen version when the statement
// runs on a view that records (db.DB.View); an operator without one
// pays a nil check.
//
//   - An IndexNLJoin probe, or an IndexScan, whose key covers every
//     column of its index records the index and the key's KeyHash,
//     whether the probe finds postings or not: the answer depends on
//     that key's postings and on nothing else of the table.
//   - Anything else — a SeqScan, a probe of a key prefix — marks the
//     table as read whole.
//
// A Reads is used by one evaluation at a time, which is sequential.
type Reads struct {
	tables []TableReads
	last   int // position in tables of the table recorded last
}

// TableReads is what an evaluation read of one table version: the
// whole of it, or the keys it probed.
type TableReads struct {
	Table *catalog.Table
	// Whole is set when anything but a full-key probe read the table;
	// Indexes and Keys are then empty.
	Whole bool
	// Indexes are the indexes probed, and Keys the probes' keys, each
	// its KeyHash salted by its index (KeySalt), one per probe.
	Indexes []*catalog.Index
	Keys    []uint64

	last *catalog.Index // the index probed last, and its KeySalt
	salt uint64
}

// KeySalt is what a probe's KeyHash is salted with, the FNV-1a hash of
// its index's name, so that one key probed on two indexes makes two
// keys of a read set.
func KeySalt(index string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(index); i++ {
		h = (h ^ uint64(index[i])) * 1099511628211
	}
	return h
}

// Tables returns what was recorded, one entry per table version read.
// The entries are the recorder's own until Reset.
func (r *Reads) Tables() []TableReads { return r.tables }

// Reset empties r for the next evaluation, keeping its memory.
func (r *Reads) Reset() {
	for i := range r.tables {
		r.tables[i].clear()
		r.tables[i].Table = nil
	}
	r.tables, r.last = r.tables[:0], 0
}

// clear empties what tr probed, keeping its memory; no index of a
// reclaimed version stays reachable through it.
func (tr *TableReads) clear() {
	clear(tr.Indexes)
	tr.Whole, tr.Indexes, tr.Keys, tr.last = false, tr.Indexes[:0], tr.Keys[:0], nil
}

// of returns the entry of t, adding it when there is none.
func (r *Reads) of(t *catalog.Table) *TableReads {
	if r.last < len(r.tables) && r.tables[r.last].Table == t {
		return &r.tables[r.last]
	}
	for i := range r.tables {
		if r.tables[i].Table == t {
			r.last = i
			return &r.tables[i]
		}
	}
	if len(r.tables) < cap(r.tables) {
		r.tables = r.tables[:len(r.tables)+1]
		r.tables[len(r.tables)-1].Table = t
	} else {
		r.tables = append(r.tables, TableReads{Table: t})
	}
	r.last = len(r.tables) - 1
	return &r.tables[r.last]
}

// Whole records that t was read whole.
func (r *Reads) Whole(t *catalog.Table) {
	tr := r.of(t)
	tr.clear()
	tr.Whole = true
}

// Probe records a probe of idx, an index of t, with the encoded key
// enc of cols columns: a full-key probe keeps the key, a prefix reads t
// whole.
func (r *Reads) Probe(t *catalog.Table, idx *catalog.Index, enc []byte, cols int) {
	if cols < len(idx.Ords) {
		r.Whole(t)
		return
	}
	tr := r.of(t)
	if tr.Whole {
		return
	}
	if tr.last != idx {
		if !slices.Contains(tr.Indexes, idx) {
			tr.Indexes = append(tr.Indexes, idx)
		}
		tr.last, tr.salt = idx, KeySalt(idx.Name)
	}
	tr.Keys = append(tr.Keys, catalog.KeyHash(enc)^tr.salt)
}

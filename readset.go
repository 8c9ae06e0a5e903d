package dkbms

import (
	"slices"
	"sync"
	"unsafe"

	"dkbms/internal/exec"
	"dkbms/internal/snapshot"
)

// readSet is a memo's read set in compact form. A dependency the
// evaluation read only through full-key index probes is listed in
// probed, once per index it probed; every other dependency counts as
// read whole. bloom is a Bloom filter over the probed keys, each a
// KeyHash salted by its index's name (exec.KeySalt): 2 bytes per
// distinct key, rounded up to a word, where the keys themselves would
// take about 20. A false positive only makes a commit drop a memo it
// could have carried.
type readSet struct {
	probed []probedIndex
	bloom  []uint64
}

// probedIndex names an index a memo's evaluation probed, and its table.
type probedIndex struct{ table, index string }

// The filter's shape: bloomBits bits per distinct key, bloomHashes bit
// positions per key — a false-positive rate of about 0.06 %.
const (
	bloomBits   = 16
	bloomHashes = 8
)

// recorders are what served evaluations record their reads in.
var recorders = sync.Pool{New: func() any { return new(exec.Reads) }}

// newReadSet compacts what r recorded into a memo's read set. It sorts
// and deduplicates each table's probe keys in place.
func newReadSet(r *exec.Reads) readSet {
	var rs readSet
	tables, keys := r.Tables(), 0
	for i := range tables {
		tr := &tables[i]
		if tr.Whole {
			continue
		}
		for _, ix := range tr.Indexes {
			rs.probed = append(rs.probed, probedIndex{table: tr.Table.Name, index: ix.Name})
		}
		slices.Sort(tr.Keys)
		tr.Keys = slices.Compact(tr.Keys)
		keys += len(tr.Keys)
	}
	if keys > 0 {
		rs.bloom = make([]uint64, (keys*bloomBits+63)/64)
		for _, tr := range tables {
			for _, k := range tr.Keys {
				rs.add(k)
			}
		}
	}
	return rs
}

// bit returns the filter word and bit of key's i-th position.
func (rs *readSet) bit(key uint64, i int) (word int, mask uint64) {
	h1, h2 := uint32(key), uint32(key>>32)|1
	pos := (h1 + uint32(i)*h2) % uint32(len(rs.bloom)*64)
	return int(pos / 64), 1 << (pos % 64)
}

func (rs *readSet) add(key uint64) {
	for i := 0; i < bloomHashes; i++ {
		w, m := rs.bit(key, i)
		rs.bloom[w] |= m
	}
}

// has reports whether key may have been probed.
func (rs *readSet) has(key uint64) bool {
	if len(rs.bloom) == 0 {
		return false
	}
	for i := 0; i < bloomHashes; i++ {
		if w, m := rs.bit(key, i); rs.bloom[w]&m == 0 {
			return false
		}
	}
	return true
}

// probes reports whether the memo probed the named index of table, or
// with index "" whether it read table only through probes.
func (rs *readSet) probes(table, index string) bool {
	for _, p := range rs.probed {
		if p.table == table && (index == "" || p.index == index) {
			return true
		}
	}
	return false
}

// bytes is the read set's size: its filter words and its index list.
func (rs *readSet) bytes() int64 {
	return int64(len(rs.bloom)*8 + len(rs.probed)*int(unsafe.Sizeof(probedIndex{})))
}

// unwritten reports whether the commit that published next wrote
// nothing the memo read, given that the memo stood at the commit's
// previous snapshot with vector vec. Every dependency the commit moved
// must be one the memo read only through probes, moved to a version the
// commit wrote by key (catalog.Table.Writes), and each key written on
// an index the memo probed must miss the filter. Every row a commit
// writes is logged on every index of its table, so a key the memo
// probed that no write touched still has the postings it had.
func (rs *readSet) unwritten(vec []depGen, next *snapshot.Snapshot) bool {
	for _, d := range vec {
		name, t := d.table, next.Table(d.table)
		if t != nil && t.Gen() == d.gen {
			continue
		}
		if t == nil || t.Gen() != next.Gen || !rs.probes(name, "") {
			return false
		}
		writes, ok := t.Writes()
		if !ok {
			return false
		}
		for i, keys := range writes {
			ix := t.Indexes[i].Name
			if len(keys) == 0 || !rs.probes(name, ix) {
				continue
			}
			s := exec.KeySalt(ix)
			for _, k := range keys {
				if rs.has(k ^ s) {
					return false
				}
			}
		}
	}
	return true
}

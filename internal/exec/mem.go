package exec

import (
	"hash/maphash"
	"unsafe"

	"dkbms/internal/rel"
)

// Tuple memory of the operators (DESIGN.md §3, "Tuple memory in the
// executor"): rows travel the tree as stored records, each valid for
// the call that passes it on. A scan passes records in place, under the
// pin of their page; a projection or a join writes each of its records
// over the last in one buffer; the records an operator must keep — a
// hash join's build side, a nested-loop join's right side, a set, a
// DISTINCT's seen records — it copies into an arena, and identity is
// one byte-keyed hash table over it, keyTable. Nothing is pooled
// between trees, but a tree keeps its working memory from one execution
// to the next: the one tree a prepared statement keeps resets its key
// tables, arenas and sets and fills them again, whichever caller
// executes it, until the runs using the statement end and shed it
// (Shed). What a pass keeps is the memory it used: a buffer Outgrown by
// that pass (rel.Outgrown, more than four times its use plus 1 KiB) is
// released when the pass ends. Rows are decoded at most once, by the
// statement's reader, into a block of its own (db.Stmt.Scan,
// db.Stmt.Query).

// Shed empties a tree between the runs of its statement:
// every operator of it lets go of the working memory it kept (key
// tables, sets, arenas, record buffers) and of the tables, indexes,
// probe keys and read recorder it was bound to. What remains is the
// operators, their predicates and their decisions; before the tree runs
// again the planner re-binds its tables, indexes and keys, and the next
// pass allocates its memory as a new tree's first pass does.
func Shed(op Operator) {
	switch o := op.(type) {
	case *SeqScan:
		o.Table, o.Reads = nil, nil
	case *IndexScan:
		o.Table, o.Index, o.Key, o.Reads = nil, nil, nil, nil
	case *IndexNLJoin:
		o.Right, o.Index, o.Reads = nil, nil, nil
		o.outer, o.key, o.j = rel.Spans{}, nil, joined{schema: o.j.schema}
		Shed(o.Left)
	case *Filter:
		o.row = rel.Spans{}
		Shed(o.Input)
	case *Project:
		o.in, o.out = rel.Spans{}, nil
		Shed(o.Input)
	case *NLJoin:
		o.right, o.j = rel.Records{}, joined{schema: o.j.schema}
		Shed(o.Left)
		Shed(o.Right)
	case *HashJoin:
		o.arena, o.ends, o.keys, o.chains, o.next = nil, nil, keyTable{}, nil, nil
		o.side, o.key, o.j = rel.Spans{}, nil, joined{schema: o.j.schema}
		Shed(o.Left)
		Shed(o.Right)
	case *Distinct:
		o.seen = keyTable{}
		Shed(o.Input)
	case *SetOpExec:
		o.set = nil
		Shed(o.Left)
		Shed(o.Right)
	case *CountStar:
		o.rec = nil
		Shed(o.Input)
	case *Values:
		o.rec = nil
	}
}

// trim returns buf, which an execution filled to its length, or nil
// when buf is Outgrown by that: what an operator keeps for its next
// pass once a pass ends.
func trim[T any](buf []T) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if rel.Outgrown(cap(buf)*size, len(buf)*size) {
		return nil
	}
	return buf
}

// keyTable maps byte keys (records, or their key columns) to dense entry numbers
// in insertion order: 0, 1, 2, … The keys lie back to back in one arena
// and the table is open-addressed, so a probe allocates nothing and an
// insert only when the arena or the table grows. It replaces
// map[string]int, which allocates a string per key. The zero keyTable
// is empty and ready for use.
type keyTable struct {
	arena []byte
	ends  []uint32 // key i is arena[ends[i-1]:ends[i]]
	slots []keySlot
}

// keySlot is one open-addressing slot: the entry it holds plus one, and
// the low half of the key's hash to skip most unequal keys and to
// rehash without reading the arena. The zero slot is empty.
type keySlot struct{ hash, entry uint32 }

var keySeed = maphash.MakeSeed()

func hashKey(key []byte) uint32 { return uint32(maphash.Bytes(keySeed, key)) }

// len returns the number of keys.
func (t *keyTable) len() int { return len(t.ends) }

// reset empties the table for the next execution, keeping its arena,
// ends and slots.
func (t *keyTable) reset() {
	t.arena, t.ends = t.arena[:0], t.ends[:0]
	clear(t.slots)
}

// trim releases the table, leaving the empty zero keyTable, when any of
// its parts is Outgrown by the keys it holds: what the table keeps for
// its next pass once a pass ends. The slots those keys need are at most
// twice what add's load factor asks.
func (t *keyTable) trim() {
	slot := int(unsafe.Sizeof(keySlot{}))
	if trim(t.arena) == nil || trim(t.ends) == nil || rel.Outgrown(len(t.slots)*slot, 2*len(t.ends)*slot*4/3) {
		*t = keyTable{}
	}
}

func (t *keyTable) key(entry uint32) []byte {
	start := uint32(0)
	if entry > 0 {
		start = t.ends[entry-1]
	}
	return t.arena[start:t.ends[entry]]
}

// find returns the entry number of key, or -1.
func (t *keyTable) find(key []byte) int {
	if len(t.slots) == 0 {
		return -1
	}
	i, found := t.locate(key, hashKey(key))
	if !found {
		return -1
	}
	return int(t.slots[i].entry - 1)
}

// locate returns the slot that holds key, or the empty slot where it
// would go.
func (t *keyTable) locate(key []byte, hash uint32) (slot int, found bool) {
	mask := len(t.slots) - 1
	i := int(hash) & mask
	for range t.slots {
		s := t.slots[i]
		if s.entry == 0 {
			return i, false
		}
		if s.hash == hash && string(t.key(s.entry-1)) == string(key) {
			return i, true
		}
		i = (i + 1) & mask
	}
	panic("exec: keyTable without an empty slot") // add keeps the load under 3/4
}

// add returns the entry number of key, inserting it if it is new.
func (t *keyTable) add(key []byte) (entry int, added bool) {
	if len(t.slots) == 0 {
		t.slots = make([]keySlot, 8)
	}
	hash := hashKey(key)
	i, found := t.locate(key, hash)
	if found {
		return int(t.slots[i].entry - 1), false
	}
	if (len(t.ends)+1)*4 > len(t.slots)*3 { // load stays under 3/4
		t.grow()
		i, _ = t.locate(key, hash)
	}
	t.arena = append(t.arena, key...)
	t.ends = append(t.ends, uint32(len(t.arena)))
	t.slots[i] = keySlot{hash: hash, entry: uint32(len(t.ends))}
	return len(t.ends) - 1, true
}

func (t *keyTable) grow() {
	old := t.slots
	t.slots = make([]keySlot, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.entry == 0 {
			continue
		}
		i := int(s.hash) & mask
		for t.slots[i].entry != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

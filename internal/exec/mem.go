package exec

import (
	"hash/maphash"
	"slices"
	"unsafe"

	"dkbms/internal/rel"
)

// Tuple memory of the operators (DESIGN.md §3, "Tuple memory in the
// executor"): scans emit rows of decoded blocks (rel.Block), and the
// operators that build tuples — Project and the joins — cut them from a
// slab; identity (set operations, DISTINCT, the hash join's build side)
// is one byte-keyed hash table, keyTable. Nothing is pooled between
// trees, but a tree keeps its working memory from one execution to the
// next: a prepared statement's kept tree, re-opened, decodes its pages
// over the last execution's blocks, resets its key tables and sets, and
// rewinds its slabs to their first chunk. So a row read inside a tree
// is valid until that tree's next execution, and no longer; every row
// that leaves a statement is copied before it does (CollectOwned, or an
// INSERT's write to a page). What a closed operator keeps is the memory
// its last pass used: a buffer Outgrown by that pass (rel.Outgrown,
// more than four times its use plus 1 KiB) is released at Close. A
// producer the planner marks Borrowed, whose consumer copies each row
// before it asks for the next, writes every row into the same peek
// space of its slab.

// maxChunkRows bounds a slab chunk, and with it what one kept row of a
// large result can pin.
const maxChunkRows = 1024

// slab hands out an operator's output tuples from chunks sized by what
// the operator has emitted so far in the execution: each chunk holds a
// quarter as many rows as were handed out before it (at least one, at
// most maxChunkRows). The first rows therefore cost one small
// allocation each, as a make per row would; from then on the
// allocations grow with the logarithm of the output, and at most a
// fifth of what was allocated is never used. The chunks are kept:
// rewind starts the next execution over the first of them, and only
// rows beyond what they hold allocate.
type slab struct {
	chunks [][]rel.Value
	free   []rel.Value // the unused rest of the current chunk
	cut    int32       // chunks[cut] is the next chunk to cut from
	rows   int32       // tuples handed out this execution, all chunks
}

// rewind starts a new execution over the slab's first chunk: every
// tuple it handed out before may be written over.
func (s *slab) rewind() { s.cut, s.free, s.rows = 0, nil, 0 }

// trim releases the chunks the execution did not reach when they are
// Outgrown by those it did, and the list of chunks when it is Outgrown
// by the chunks left.
func (s *slab) trim() {
	used, kept := 0, 0
	for i, c := range s.chunks {
		if i < int(s.cut) {
			used += len(c)
		}
		kept += len(c)
	}
	if rel.Outgrown(kept*rel.ValueSize, used*rel.ValueSize) {
		clear(s.chunks[s.cut:])
		s.chunks = s.chunks[:s.cut]
	}
	if trim(s.chunks) == nil {
		s.chunks = slices.Clone(s.chunks)
	}
}

// peek returns the tuple of the given width that the next take will
// hand out, without handing it out: a join writes its candidate there
// and takes it only if the residual holds, so only emitted rows use
// slab space. The tuple's capacity is its length.
func (s *slab) peek(width int) rel.Tuple {
	if len(s.free) < width {
		s.refill(width)
	}
	return s.free[:width:width]
}

// refill makes the next kept chunk that holds a row of the width the
// current one, or a new chunk when none is left.
func (s *slab) refill(width int) {
	for _, c := range s.chunks[s.cut:] {
		s.cut++
		if len(c) >= width {
			s.free = c
			return
		}
	}
	s.free = make([]rel.Value, width*min(max(int(s.rows)/4, 1), maxChunkRows))
	s.chunks = append(s.chunks, s.free)
	s.cut++
}

// take hands out what peek(width) returned.
func (s *slab) take(width int) rel.Tuple {
	tu := s.peek(width)
	s.free = s.free[width:]
	s.rows++
	return tu
}

// next returns the tuple peek(width) returns, handed out unless the
// producer is borrowed: then the next row is written over it, and one
// chunk serves the whole execution.
func (s *slab) next(width int, borrowed bool) rel.Tuple {
	if borrowed {
		return s.peek(width)
	}
	return s.take(width)
}

// concat returns left ++ right in the tuple peek would return.
func (s *slab) concat(left, right rel.Tuple) rel.Tuple {
	tu := s.peek(len(left) + len(right))
	copy(tu[copy(tu, left):], right)
	return tu
}

// Shed empties a closed tree for parking between the runs of its
// statement: every operator of it lets go of the working memory it
// kept (scan blocks, decoders, key tables, sets, slabs, kept rows) and
// of the tables, indexes and probe keys it was bound to. What remains
// is the operators, their predicates and their decisions; before the
// tree is opened again the planner re-binds its tables, indexes and
// keys, and the next pass allocates its memory as a new tree's first
// pass does.
func Shed(op Operator) {
	switch o := op.(type) {
	case *SeqScan:
		o.Table, o.blocks, o.lent, o.dec = nil, nil, nil, rel.BlockDecoder{}
	case *IndexScan:
		o.Table, o.Index, o.Key, o.rows, o.dec = nil, nil, nil, rel.Block{}, rel.BlockDecoder{}
	case *IndexNLJoin:
		o.Right, o.Index = nil, nil
		o.batch, o.matches, o.dec, o.out = nil, rel.Block{}, rel.BlockDecoder{}, slab{}
		Shed(o.Left)
	case *Filter:
		Shed(o.Input)
	case *Project:
		o.out = slab{}
		Shed(o.Input)
	case *NLJoin:
		o.right, o.cur, o.out = nil, nil, slab{}
		Shed(o.Left)
		Shed(o.Right)
	case *HashJoin:
		o.keys, o.chains, o.rows, o.next, o.key, o.cur, o.out = keyTable{}, nil, nil, nil, nil, nil, slab{}
		Shed(o.Left)
		Shed(o.Right)
	case *Distinct:
		o.seen, o.key = keyTable{}, nil
		Shed(o.Input)
	case *SetOpExec:
		o.set, o.out = nil, nil
		Shed(o.Left)
		Shed(o.Right)
	case *CountStar:
		Shed(o.Input)
	}
}

// trim returns buf, which an execution filled to its length, or nil
// when buf is Outgrown by that: what an operator keeps for its next
// execution after Close.
func trim[T any](buf []T) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if rel.Outgrown(cap(buf)*size, len(buf)*size) {
		return nil
	}
	return buf
}

// keyTable maps byte keys (rel.Tuple.AppendKey) to dense entry numbers
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
// its next execution after Close. The slots those keys need are at most
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

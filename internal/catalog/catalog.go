// Package catalog maintains the database schema: tables, their columns,
// and their indexes. The catalog itself is stored in a heap file rooted
// in the pager superblock, so a database file is self-describing. Index
// trees are memory-resident and rebuilt from table heaps at open time.
//
// The catalog also owns index maintenance: all tuple traffic goes
// through Table.Insert / Table.DeleteRID, which keep every index of the
// table synchronized with the heap.
package catalog

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// Table is a named relation: schema plus heap file plus indexes.
type Table struct {
	Name    string
	Schema  *rel.Schema
	Heap    *storage.HeapFile
	Indexes []*Index
	// Temp marks tables that are never written to the catalog heap
	// (the run-time library's per-iteration temporaries).
	Temp bool

	rid storage.RID // location of this table's catalog record
	// heapHeadFromRecord carries the heap head page ID between record
	// decode and heap open during catalog load.
	heapHeadFromRecord storage.PageID
	// rows is a maintained tuple count used by the planner for join
	// ordering and build-side selection.
	rows int
}

// Rows returns the maintained tuple count (exact; updated on every
// insert, delete and truncate, and recounted at open).
func (t *Table) Rows() int { return t.rows }

// Index is a secondary index over a subset of a table's columns.
type Index struct {
	Name  string
	Table string
	Cols  []string
	Ords  []int // column ordinals in the table schema
	Tree  *indexTree
	Temp  bool

	rid storage.RID
}

// indexTree is defined in tree.go as a thin wrapper to avoid leaking the
// index package through the catalog API surface.

// Catalog is the schema manager for one database.
//
// Two locks with a strict order (ddlMu before mu, never mu alone
// around I/O) split the DDL path:
//
//   - ddlMu serializes whole DDL operations, including their heap-file
//     I/O (catalog records, table heap creation, index builds). Only
//     DDL mutates the registries, so holding ddlMu makes a read-check /
//     build / register sequence atomic against other DDL.
//   - mu guards the name→table/index maps only, and is held just long
//     enough to read or swap map entries. No storage I/O ever happens
//     under it (dkblint's lockorder analyzer reports file I/O reached
//     from any region that holds it), so name
//     resolution never waits on disk latency behind a concurrent
//     CREATE/DROP — a regression the original single-mutex layout had.
//
// Tuple traffic on a *Table* (Insert/DeleteRID/Scan) is not serialized
// here — concurrent writers of one table must coordinate above this
// layer (the server's ConcurrentTestbed lock does).
type Catalog struct {
	pager   *storage.Pager
	heap    *storage.HeapFile // nil until Open
	ddlMu   sync.Mutex
	mu      sync.RWMutex
	tables  map[string]*Table
	indexes map[string]*Index
}

// Open loads (or initializes) the catalog of the database in pager.
func Open(pager *storage.Pager) (*Catalog, error) {
	root, err := pager.EnsureSuperblock()
	if err != nil {
		return nil, err
	}
	c := &Catalog{
		pager:   pager,
		tables:  make(map[string]*Table),
		indexes: make(map[string]*Index),
	}
	if root == storage.InvalidPageID {
		h, err := storage.CreateHeap(pager)
		if err != nil {
			return nil, err
		}
		if err := pager.SetRoot(h.Head()); err != nil {
			return nil, err
		}
		c.heap = h
		return c, nil
	}
	c.heap = storage.OpenHeap(pager, root)
	if err := c.load(); err != nil {
		return nil, err
	}
	return c, nil
}

// load replays catalog records and rebuilds index trees.
func (c *Catalog) load() error {
	type pendingIndex struct {
		rec []byte
		rid storage.RID
	}
	var idxRecs []pendingIndex
	err := c.heap.Scan(func(rid storage.RID, rec []byte) error {
		if len(rec) == 0 {
			return fmt.Errorf("catalog: empty record at %s", rid)
		}
		switch rec[0] {
		case recTable:
			t, err := decodeTableRecord(rec)
			if err != nil {
				return err
			}
			t.rid = rid
			t.Heap = storage.OpenHeap(c.pager, t.heapHeadFromRecord)
			n, err := t.Heap.Count()
			if err != nil {
				return err
			}
			t.rows = n
			c.tables[t.Name] = t
			return nil
		case recIndex:
			cp := make([]byte, len(rec))
			copy(cp, rec)
			idxRecs = append(idxRecs, pendingIndex{rec: cp, rid: rid})
			return nil
		default:
			return fmt.Errorf("catalog: unknown record kind %d at %s", rec[0], rid)
		}
	})
	if err != nil {
		return err
	}
	for _, pi := range idxRecs {
		idx, err := decodeIndexRecord(pi.rec)
		if err != nil {
			return err
		}
		idx.rid = pi.rid
		t, ok := c.tables[idx.Table]
		if !ok {
			return fmt.Errorf("catalog: index %s references missing table %s", idx.Name, idx.Table)
		}
		if err := buildIndex(t, idx); err != nil {
			return err
		}
		// Open runs single-threaded before the catalog is published, so
		// registration needs no locking here.
		t.Indexes = append(t.Indexes, idx)
		c.indexes[idx.Name] = idx
	}
	return nil
}

// buildIndex resolves column ordinals and builds the index tree from
// the table heap. It performs heap I/O and must not be called with c.mu
// held; registration into the catalog maps is the caller's job.
func buildIndex(t *Table, idx *Index) error {
	idx.Ords = make([]int, len(idx.Cols))
	for i, col := range idx.Cols {
		o := t.Schema.Ordinal(col)
		if o < 0 {
			return fmt.Errorf("catalog: index %s: no column %s in table %s", idx.Name, col, t.Name)
		}
		idx.Ords[i] = o
	}
	idx.Tree = newIndexTree()
	return t.Scan(func(rid storage.RID, tu rel.Tuple) error {
		return idx.Tree.Insert(keyOf(tu, idx.Ords), rid)
	})
}

// keyOf projects a tuple onto an index's columns. The key is a view of
// the tuple's values; the tree copies what it keeps (rel.Tuple.Clone),
// so an index never pins the block or slab its keys were read from.
func keyOf(tu rel.Tuple, ords []int) rel.Tuple {
	k := make(rel.Tuple, len(ords))
	for i, o := range ords {
		k[i] = tu[o]
	}
	return k
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// Index returns the named index, or nil.
func (c *Catalog) Index(name string) *Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.indexes[name]
}

// Tables returns all table names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// CreateTable creates a table. temp tables are invisible to persistence.
func (c *Catalog) CreateTable(name string, schema *rel.Schema, temp bool) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	//dkblint:locksafe DDL serializes on ddlMu off the query path; heap/index I/O must be atomic with the catalog mutation
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	c.mu.RLock()
	_, exists := c.tables[name]
	c.mu.RUnlock()
	if exists {
		// Stable under ddlMu: only DDL adds or removes map entries.
		return nil, fmt.Errorf("catalog: table %s already exists", name)
	}
	h, err := storage.CreateHeap(c.pager)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: schema, Heap: h, Temp: temp}
	if !temp {
		rid, err := c.heap.Insert(encodeTableRecord(t))
		if err != nil {
			t.Heap.Drop() // compensate: don't leak the fresh heap's pages
			return nil, err
		}
		t.rid = rid
	}
	c.mu.Lock()
	c.tables[name] = t
	c.mu.Unlock()
	return t, nil
}

// DropTable removes a table, its indexes, and releases its pages.
func (c *Catalog) DropTable(name string) error {
	//dkblint:locksafe DDL serializes on ddlMu off the query path; heap/index I/O must be atomic with the catalog mutation
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("catalog: no table %s", name)
	}
	for _, idx := range append([]*Index(nil), t.Indexes...) {
		if err := c.dropIndexDDL(idx.Name); err != nil {
			return err
		}
	}
	if !t.Temp {
		if err := c.heap.Delete(t.rid); err != nil {
			return err
		}
	}
	c.mu.Lock()
	delete(c.tables, name)
	c.mu.Unlock()
	return t.Heap.Drop()
}

// CreateIndex creates an index on table columns and builds it.
//
// The build scans the table heap outside any catalog lock; excluding
// concurrent writers of that table during DDL is, as for all tuple
// traffic, the caller's contract (the server's testbed lock provides
// it).
func (c *Catalog) CreateIndex(name, table string, cols []string, temp bool) (*Index, error) {
	//dkblint:locksafe DDL serializes on ddlMu off the query path; heap/index I/O must be atomic with the catalog mutation
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	c.mu.RLock()
	_, exists := c.indexes[name]
	t, ok := c.tables[table]
	c.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("catalog: index %s already exists", name)
	}
	if !ok {
		return nil, fmt.Errorf("catalog: no table %s", table)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: index %s has no columns", name)
	}
	idx := &Index{Name: name, Table: table, Cols: cols, Temp: temp || t.Temp}
	if err := buildIndex(t, idx); err != nil {
		return nil, err
	}
	if !idx.Temp {
		rid, err := c.heap.Insert(encodeIndexRecord(idx))
		if err != nil {
			return nil, err
		}
		idx.rid = rid
	}
	c.mu.Lock()
	t.Indexes = append(t.Indexes, idx)
	c.indexes[idx.Name] = idx
	c.mu.Unlock()
	return idx, nil
}

// DropIndex removes an index.
func (c *Catalog) DropIndex(name string) error {
	//dkblint:locksafe DDL serializes on ddlMu off the query path; heap/index I/O must be atomic with the catalog mutation
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	return c.dropIndexDDL(name)
}

// dropIndexDDL is DropIndex with c.ddlMu already held (c.mu must not
// be: the catalog-record delete is heap I/O).
func (c *Catalog) dropIndexDDL(name string) error {
	c.mu.RLock()
	idx, ok := c.indexes[name]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("catalog: no index %s", name)
	}
	if !idx.Temp {
		if err := c.heap.Delete(idx.rid); err != nil {
			return err
		}
	}
	c.mu.Lock()
	if t := c.tables[idx.Table]; t != nil {
		for i, ti := range t.Indexes {
			if ti == idx {
				t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
				break
			}
		}
	}
	delete(c.indexes, name)
	c.mu.Unlock()
	return nil
}

// ShadowTable replaces a table with a physically separate clone — the
// copy-on-write step of the snapshot commit path. The clone gets a
// fresh heap holding a raw copy of every record and freshly built
// index trees; the original table object is returned unchanged and
// stays fully readable (snapshots holding it keep scanning its heap
// and probing its indexes), but is no longer reachable by name. The
// caller owns the original's heap pages from here on: they are freed
// by the snapshot store once no snapshot references the old version.
//
// Like all DDL, the clone's I/O runs under ddlMu only; the name maps
// swap under mu at the end. Temp tables cannot be shadowed.
func (c *Catalog) ShadowTable(name string) (*Table, error) {
	//dkblint:locksafe DDL serializes on ddlMu off the query path; heap/index I/O must be atomic with the catalog mutation
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("catalog: no table %s", name)
	}
	if t.Temp {
		return nil, fmt.Errorf("catalog: cannot shadow temp table %s", name)
	}
	h, err := storage.CreateHeap(c.pager)
	if err != nil {
		return nil, err
	}
	cleanup := func(err error) (*Table, error) {
		h.Drop() // compensate: don't leak the fresh heap's pages
		return nil, err
	}
	if err := t.Heap.Scan(func(_ storage.RID, rec []byte) error {
		_, err := h.Insert(rec)
		return err
	}); err != nil {
		return cleanup(err)
	}
	nt := &Table{Name: name, Schema: t.Schema, Heap: h, rows: t.rows}
	newIdx := make([]*Index, 0, len(t.Indexes))
	for _, idx := range t.Indexes {
		// Index catalog records reference the table by name, so the
		// persisted record (and its rid) carries over unchanged.
		ni := &Index{Name: idx.Name, Table: idx.Table, Cols: idx.Cols, Temp: idx.Temp, rid: idx.rid}
		if err := buildIndex(nt, ni); err != nil {
			return cleanup(err)
		}
		newIdx = append(newIdx, ni)
	}
	nt.Indexes = newIdx
	// Rewrite the table's catalog record: it embeds the heap head page.
	if err := c.heap.Delete(t.rid); err != nil {
		return cleanup(err)
	}
	rid, err := c.heap.Insert(encodeTableRecord(nt))
	if err != nil {
		return cleanup(err)
	}
	nt.rid = rid
	c.mu.Lock()
	c.tables[name] = nt
	for _, ni := range nt.Indexes {
		c.indexes[ni.Name] = ni
	}
	c.mu.Unlock()
	return t, nil
}

// Flush persists all dirty pages.
func (c *Catalog) Flush() error { return c.pager.Flush() }

// --- Tuple traffic (index-maintaining) ---

// Insert adds a tuple to the table and all its indexes.
func (t *Table) Insert(tu rel.Tuple) (storage.RID, error) {
	if len(tu) != t.Schema.Len() {
		return storage.RID{}, fmt.Errorf("catalog: arity mismatch inserting into %s: got %d, want %d", t.Name, len(tu), t.Schema.Len())
	}
	for i := range tu {
		if tu[i].Kind != t.Schema.Col(i).Type {
			return storage.RID{}, fmt.Errorf("catalog: type mismatch in %s column %s: %v", t.Name, t.Schema.Col(i).Name, tu[i])
		}
	}
	var buf [128]byte // the heap copies the record into its page
	rid, err := t.Heap.Insert(tu.Encode(buf[:0]))
	if err != nil {
		return storage.RID{}, err
	}
	for _, idx := range t.Indexes {
		if err := idx.Tree.Insert(keyOf(tu, idx.Ords), rid); err != nil {
			return storage.RID{}, err
		}
	}
	t.rows++
	return rid, nil
}

// InsertRecord adds an already-encoded tuple: a record scanned from a
// table of the same column types, stored as it is. The table must have
// no indexes (their keys would need the decoded tuple).
func (t *Table) InsertRecord(rec []byte) error {
	if len(t.Indexes) != 0 {
		return fmt.Errorf("catalog: raw insert into indexed table %s", t.Name)
	}
	if _, err := t.Heap.Insert(rec); err != nil {
		return err
	}
	t.rows++
	return nil
}

// DeleteRID removes the tuple at rid from the heap and all indexes. The
// caller supplies the decoded tuple (executors always have it in hand).
func (t *Table) DeleteRID(rid storage.RID, tu rel.Tuple) error {
	for _, idx := range t.Indexes {
		if err := idx.Tree.Delete(keyOf(tu, idx.Ords), rid); err != nil {
			return err
		}
	}
	if err := t.Heap.Delete(rid); err != nil {
		return err
	}
	t.rows--
	return nil
}

// Truncate removes all tuples and clears all indexes.
func (t *Table) Truncate() error {
	if err := t.Heap.Truncate(); err != nil {
		return err
	}
	for _, idx := range t.Indexes {
		idx.Tree = newIndexTree()
	}
	t.rows = 0
	return nil
}

// DecodeBlocks decodes the table a page at a time through dec, a
// decoder of the table's schema, and returns the live rows of each
// page, in slot order, as one block (rel.Block says what keeping one of
// its rows keeps alive). old are the blocks a previous call returned,
// whose rows nobody reads any more: page i is decoded over old[i] when
// that block's slab fits it (rel.BlockDecoder.BeginReusing), the blocks
// are returned in old's list, and old's blocks past the table's pages
// are released, as is a list far longer than the table.
func (t *Table) DecodeBlocks(dec *rel.BlockDecoder, old []rel.Block) ([]rel.Block, error) {
	blocks := old[:0]
	err := t.scanPages(dec, old, func(_ *storage.Page, b rel.Block) error {
		if cap(blocks) == 0 && b.Len() > 0 {
			// Pages of one table hold about as many rows each.
			blocks = make([]rel.Block, 0, t.Rows()/b.Len()+1)
		}
		// Page i is written over old[i] after it was decoded over it.
		blocks = append(blocks, b)
		return nil
	})
	if len(blocks) < len(old) {
		clear(old[len(blocks):])
	}
	if size := int(unsafe.Sizeof(rel.Block{})); rel.Outgrown(cap(blocks)*size, len(blocks)*size) {
		blocks = slices.Clone(blocks)
	}
	return blocks, err
}

// DecodeAll decodes the whole table, in the order DecodeBlocks reads it,
// into one block of its own: one value slab sized by the maintained row
// count and one string, as rel.OwnRows leaves rows. It reads the pages
// DecodeBlocks reads.
func (t *Table) DecodeAll() (rel.Block, error) {
	dec := rel.NewBlockDecoder(t.Schema)
	dec.Begin(t.rows, 0)
	err := t.Heap.ScanPages(func(pg *storage.Page) error {
		dec.Grow(recordBytes(pg))
		return t.decodePage(&dec, pg)
	})
	if err != nil {
		return rel.Block{}, err
	}
	return dec.Finish(), nil
}

// scanPages decodes each page through dec into a block, over old[i] for
// page i where there is one, and passes fn the pinned page with it.
func (t *Table) scanPages(dec *rel.BlockDecoder, old []rel.Block, fn func(pg *storage.Page, b rel.Block) error) error {
	i := 0
	return t.Heap.ScanPages(func(pg *storage.Page) error {
		var prev rel.Block
		if i < len(old) {
			prev = old[i]
		}
		i++
		dec.BeginReusing(prev, pg.LiveRecords(), recordBytes(pg))
		if err := t.decodePage(dec, pg); err != nil {
			return err
		}
		return fn(pg, dec.Finish())
	})
}

// recordBytes returns the length of the page's live records together.
func recordBytes(pg *storage.Page) int {
	size := 0
	for s := 0; s < pg.SlotCount(); s++ {
		size += len(pg.Record(s))
	}
	return size
}

// decodePage adds the page's live records, in slot order, to the block
// dec is building.
func (t *Table) decodePage(dec *rel.BlockDecoder, pg *storage.Page) error {
	for s := 0; s < pg.SlotCount(); s++ {
		if rec := pg.Record(s); rec != nil {
			if err := dec.Add(rec); err != nil {
				return fmt.Errorf("catalog: table %s: %w", t.Name, err)
			}
		}
	}
	return nil
}

// Scan calls fn with every tuple and the RID it is stored at. The tuple
// is a row of its page's block.
func (t *Table) Scan(fn func(rid storage.RID, tu rel.Tuple) error) error {
	dec := rel.NewBlockDecoder(t.Schema)
	return t.scanPages(&dec, nil, func(pg *storage.Page, b rel.Block) error {
		row := 0
		for s := 0; s < pg.SlotCount(); s++ {
			if pg.Record(s) == nil {
				continue
			}
			if err := fn(storage.RID{Page: pg.ID, Slot: s}, b.Row(row)); err != nil {
				return err
			}
			row++
		}
		return nil
	})
}

// Count returns the number of tuples.
func (t *Table) Count() (int, error) { return t.Heap.Count() }

// Get decodes the tuple at rid.
func (t *Table) Get(rid storage.RID) (tu rel.Tuple, err error) {
	err = t.Heap.Read(rid, func(rec []byte) error {
		tu, err = rel.DecodeTuple(rec, t.Schema)
		return err
	})
	return tu, err
}

// AddRows decodes the tuples at rids, in order, into the block dec is
// building: each record is decoded under its page's pin, and the block
// gives the rows of one index probe one slab and one string.
func (t *Table) AddRows(dec *rel.BlockDecoder, rids []storage.RID) error {
	for _, rid := range rids {
		if err := t.Heap.Read(rid, dec.Add); err != nil {
			return fmt.Errorf("record %s: %w", rid, err)
		}
	}
	return nil
}

// IndexOn returns an index of the table whose columns start with the
// given ordinals (exact prefix match), or nil. The planner uses this to
// pick access paths.
func (t *Table) IndexOn(ords []int) *Index {
	for _, idx := range t.Indexes {
		if len(idx.Ords) < len(ords) {
			continue
		}
		ok := true
		for i, o := range ords {
			if idx.Ords[i] != o {
				ok = false
				break
			}
		}
		if ok {
			return idx
		}
	}
	return nil
}

// --- Record encodings ---

const (
	recTable byte = 1
	recIndex byte = 2
)

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || int(n) > len(buf)-sz {
		return "", nil, fmt.Errorf("catalog: corrupt string field")
	}
	return string(buf[sz : sz+int(n)]), buf[sz+int(n):], nil
}

func encodeTableRecord(t *Table) []byte {
	buf := []byte{recTable}
	buf = appendString(buf, t.Name)
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Heap.Head()))
	buf = binary.AppendUvarint(buf, uint64(t.Schema.Len()))
	for _, col := range t.Schema.Columns() {
		buf = appendString(buf, col.Name)
		buf = append(buf, byte(col.Type))
	}
	return buf
}

func decodeTableRecord(rec []byte) (*Table, error) {
	buf := rec[1:]
	name, buf, err := readString(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) < 4 {
		return nil, fmt.Errorf("catalog: truncated table record for %s", name)
	}
	head := storage.PageID(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	ncols, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("catalog: truncated table record for %s", name)
	}
	buf = buf[sz:]
	cols := make([]rel.Column, ncols)
	for i := range cols {
		cn, rest, err := readString(buf)
		if err != nil {
			return nil, err
		}
		if len(rest) < 1 {
			return nil, fmt.Errorf("catalog: truncated column in table %s", name)
		}
		cols[i] = rel.Column{Name: cn, Type: rel.Type(rest[0])}
		buf = rest[1:]
	}
	schema, err := rel.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: schema}
	t.heapHeadFromRecord = head
	return t, nil
}

func encodeIndexRecord(idx *Index) []byte {
	buf := []byte{recIndex}
	buf = appendString(buf, idx.Name)
	buf = appendString(buf, idx.Table)
	buf = binary.AppendUvarint(buf, uint64(len(idx.Cols)))
	for _, c := range idx.Cols {
		buf = appendString(buf, c)
	}
	return buf
}

func decodeIndexRecord(rec []byte) (*Index, error) {
	buf := rec[1:]
	name, buf, err := readString(buf)
	if err != nil {
		return nil, err
	}
	table, buf, err := readString(buf)
	if err != nil {
		return nil, err
	}
	ncols, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("catalog: truncated index record for %s", name)
	}
	buf = buf[sz:]
	cols := make([]string, ncols)
	for i := range cols {
		cols[i], buf, err = readString(buf)
		if err != nil {
			return nil, err
		}
	}
	return &Index{Name: name, Table: table, Cols: cols}, nil
}

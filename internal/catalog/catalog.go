// Package catalog maintains the database schema: tables, their columns,
// and their indexes. The catalog itself is stored in a heap file rooted
// in the pager superblock, so a database file is self-describing. Index
// trees are memory-resident and rebuilt from table heaps at open time.
//
// The catalog also owns index maintenance: all tuple traffic goes
// through Table.Insert / Table.DeleteRID, which keep every index of the
// table synchronized with the heap.
//
// And it owns copy-on-write: Freeze makes every stored table version
// read-only, and Writable, which every write resolves its target
// through, copies a frozen version on its first write (ShadowTable's
// step). What a commit copies is therefore what it writes.
package catalog

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"dkbms/internal/index"
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

	// frozen marks a version Freeze made read-only: its mutators refuse,
	// and Writable copies it. Set by the single writer before the
	// version is published, and never cleared.
	frozen bool

	rid storage.RID // location of this table's catalog record
	// heapHeadFromRecord carries the heap head page ID between record
	// decode and heap open during catalog load.
	heapHeadFromRecord storage.PageID
	// rows is a maintained tuple count used by the planner for join
	// ordering and build-side selection.
	rows int
	// bytes is the maintained length of the live records together,
	// kept beside rows: DecodeAll sizes its character buffer by it.
	bytes int
}

// Rows returns the maintained tuple count (exact; updated on every
// insert, delete and truncate, and recounted at open).
func (t *Table) Rows() int { return t.rows }

// Bytes returns the maintained length of the live records together.
func (t *Table) Bytes() int { return t.bytes }

// Index is a secondary index over a subset of a table's columns.
type Index struct {
	Name  string
	Table string
	Cols  []string
	Ords  []int // column ordinals in the table schema
	// Tree maps the AppendKey encoding of a row's Ords columns to the
	// RIDs it is stored at. Table.Insert, DeleteRID and Truncate keep
	// it in step with the heap; readers probe it with tuples.
	Tree *index.BTree
	Temp bool

	rid storage.RID
}

// Stats snapshots the index tree's shape (height, keys, entries, bytes)
// and traffic (searches, summed search depth, splits). The structural
// fields need the same exclusion as tuple traffic when writers are live.
func (ix *Index) Stats() index.TreeStats { return ix.Tree.Stats() }

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

	// moved is set, under ddlMu, when the stored table set changes after
	// the last Freeze: a frozen version copied, a stored table created or
	// dropped. copying is the time the copies took.
	moved   bool
	copying time.Duration
}

// ErrFrozen is returned by a mutator of a frozen table version.
var ErrFrozen = errors.New("catalog: table version is frozen")

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
			if err := t.recount(); err != nil {
				return err
			}
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

// buildIndex resolves column ordinals and types and builds the index
// tree from the table heap. It performs heap I/O and must not be called
// with c.mu held; registration into the catalog maps is the caller's
// job.
func buildIndex(t *Table, idx *Index) error {
	idx.Ords = make([]int, len(idx.Cols))
	kinds := make([]rel.Type, len(idx.Cols))
	for i, col := range idx.Cols {
		o := t.Schema.Ordinal(col)
		if o < 0 {
			return fmt.Errorf("catalog: index %s: no column %s in table %s", idx.Name, col, t.Name)
		}
		idx.Ords[i], kinds[i] = o, t.Schema.Col(o).Type
	}
	idx.Tree = index.New(kinds)
	return fillIndex(t, idx)
}

// fillIndex inserts every row of t into idx's tree and trims the tree's
// slabs to what the rows need. A key is the record's indexed columns,
// read in place.
func fillIndex(t *Table, idx *Index) error {
	var sp rel.Spans
	var buf [128]byte // the tree copies the key into its leaf
	err := t.Heap.Scan(func(rid storage.RID, rec []byte) error {
		if err := sp.Read(rec, t.Schema); err != nil {
			return fmt.Errorf("catalog: table %s: %w", t.Name, err)
		}
		return idx.Tree.Insert(sp.AppendCols(buf[:0], idx.Ords), rid)
	})
	idx.Tree.Trim()
	return err
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
	create := storage.CreateHeap
	if temp {
		create = storage.CreateTempHeap
	}
	h, err := create(c.pager)
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
		c.moved = true
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
		c.moved = true
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
	if t.frozen {
		return nil, fmt.Errorf("index %s on %s: %w", name, table, ErrFrozen)
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

// Freeze makes every stored (non-temp) table version read-only and
// returns them by name: the table map a snapshot publishes. Each
// version's next write goes to a copy (Writable). Freeze clears what
// Moved reports.
func (c *Catalog) Freeze() map[string]*Table {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*Table, len(c.tables))
	for name, t := range c.tables {
		if !t.Temp {
			t.frozen = true
			out[name] = t
		}
	}
	c.moved, c.copying = false, 0
	return out
}

// Moved reports whether the stored table set changed after the last
// Freeze — a frozen version copied, a stored table created or dropped —
// and the time the copies took.
func (c *Catalog) Moved() (bool, time.Duration) {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	return c.moved, c.copying
}

// Writable returns the named table for a write, or nil when there is
// none. A frozen version is first replaced by its copy (shadow), which
// is returned; the frozen one stays readable by whoever holds it.
func (c *Catalog) Writable(name string) (*Table, error) {
	t := c.Table(name)
	if t == nil || !t.frozen {
		return t, nil
	}
	return c.shadow(t)
}

// shadow replaces the frozen version t with a physically separate,
// writable clone — the copy-on-write step. The clone gets a fresh heap
// holding a raw copy of every live record, copied record by record so
// dead slots are left behind, and for each index a clone of its tree
// with every posting moved to where the copy put the record
// (index.BTree.Clone): nothing is decoded and no key re-derived. Heap
// and trees count their traffic, the copy's included, in the
// original's counters, so a table's counters never restart at a copy.
// The frozen version is unchanged and stays fully readable (snapshots
// holding it keep scanning its heap and probing its indexes), but is no
// longer reachable by name; its pages are freed by the snapshot store
// once no snapshot references it.
//
// Like all DDL, the clone's I/O runs under ddlMu only; the name maps
// swap under mu at the end.
func (c *Catalog) shadow(t *Table) (*Table, error) {
	//dkblint:locksafe DDL serializes on ddlMu off the query path; heap/index I/O must be atomic with the catalog mutation
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	start := time.Now()
	h, err := storage.CreateHeap(c.pager)
	if err != nil {
		return nil, err
	}
	h.ShareStats(t.Heap)
	cleanup := func(err error) (*Table, error) {
		h.Drop() // compensate: don't leak the fresh heap's pages
		return nil, err
	}
	moved, err := copyHeap(h, t)
	if err != nil {
		return cleanup(err)
	}
	nt := &Table{Name: t.Name, Schema: t.Schema, Heap: h, rows: t.rows, bytes: t.bytes}
	nt.Indexes = make([]*Index, len(t.Indexes))
	for i, idx := range t.Indexes {
		// Index catalog records reference the table by name, so the
		// persisted record (and its rid) carries over unchanged.
		nt.Indexes[i] = &Index{Name: idx.Name, Table: idx.Table, Cols: idx.Cols, Ords: idx.Ords, Tree: idx.Tree.Clone(moved.to), Temp: idx.Temp, rid: idx.rid}
	}
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
	c.tables[t.Name] = nt
	for _, ni := range nt.Indexes {
		c.indexes[ni.Name] = ni
	}
	c.mu.Unlock()
	c.moved = true
	c.copying += time.Since(start)
	return nt, nil
}

// ridMap records where copyHeap put each record of the heap it copied:
// the record at slot s of a page that starts at at in rids went to
// rids[at+s]. A dead slot's entry is the zero RID, which no posting
// names.
type ridMap struct {
	pages []pageAt // by page ID
	rids  []storage.RID
}

type pageAt struct {
	page storage.PageID
	at   int
}

// copyHeap inserts every live record of t's heap into h, in chain and
// slot order, and returns where each went.
func copyHeap(h *storage.HeapFile, t *Table) (*ridMap, error) {
	m := &ridMap{rids: make([]storage.RID, 0, t.rows)}
	err := t.Heap.ScanPages(func(pg *storage.Page) error {
		m.pages = append(m.pages, pageAt{pg.ID, len(m.rids)})
		for s := 0; s < pg.SlotCount(); s++ {
			var rid storage.RID
			if rec := pg.Record(s); rec != nil {
				var err error
				if rid, err = h.Insert(rec); err != nil {
					return err
				}
			}
			m.rids = append(m.rids, rid)
		}
		return nil
	})
	slices.SortFunc(m.pages, func(a, b pageAt) int { return cmp.Compare(a.page, b.page) })
	return m, err
}

// to returns where the record at rid went.
func (m *ridMap) to(rid storage.RID) storage.RID {
	i, _ := slices.BinarySearchFunc(m.pages, rid.Page, func(p pageAt, id storage.PageID) int { return cmp.Compare(p.page, id) })
	return m.rids[m.pages[i].at+rid.Slot]
}

// Census counts a database's pages outside the temp region by owner.
// Taken when no commit is in flight and no superseded table version
// awaits reclamation (a database just opened, say), the owners and
// Unreached partition the pages.
type Census struct {
	Pages     int // the pages outside the temp region: the file's, on disk
	Super     int // the superblock
	Catalog   int // the catalog heap's chain
	Tables    int // the chains of the stored tables
	Free      int // the free list
	Unreached int // the pages none of them reaches
}

// Owned returns the pages the catalog and the stored tables hold.
func (cs Census) Owned() int { return cs.Super + cs.Catalog + cs.Tables }

// Census walks the superblock, the catalog chain, every stored table's
// chain and the free list, and counts the pages each reaches and the
// pages none reaches. A page reached twice, or a chain that leaves the
// file, is an error: two owners would overwrite each other.
func (c *Catalog) Census() (Census, error) {
	//dkblint:locksafe DDL serializes on ddlMu off the query path; heap/index I/O must be atomic with the catalog mutation
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	c.mu.RLock()
	var tables []*Table
	for _, t := range c.tables {
		if !t.Temp {
			tables = append(tables, t)
		}
	}
	c.mu.RUnlock()

	cs := Census{Pages: int(c.pager.PageCount())}
	owner := make([]string, cs.Pages)
	reach := func(what string, n *int) func(storage.PageID) error {
		return func(id storage.PageID) error {
			if int(id) >= cs.Pages {
				return fmt.Errorf("catalog: %s reaches page %d, outside the %d pages of the file", what, id, cs.Pages)
			}
			if owner[id] != "" {
				return fmt.Errorf("catalog: page %d is reached by %s and by %s", id, owner[id], what)
			}
			owner[id] = what
			*n++
			return nil
		}
	}
	if err := reach("the superblock", &cs.Super)(0); err != nil {
		return cs, err
	}
	if err := c.pager.WalkChain(c.heap.Head(), reach("the catalog", &cs.Catalog)); err != nil {
		return cs, err
	}
	for _, t := range tables {
		if err := c.pager.WalkChain(t.Heap.Head(), reach("table "+t.Name, &cs.Tables)); err != nil {
			return cs, err
		}
	}
	if err := c.pager.WalkFree(reach("the free list", &cs.Free)); err != nil {
		return cs, err
	}
	for _, o := range owner {
		if o == "" {
			cs.Unreached++
		}
	}
	return cs, nil
}

// Flush persists all dirty pages.
func (c *Catalog) Flush() error { return c.pager.Flush() }

// --- Tuple traffic (index-maintaining) ---

// refused is the error of a mutator called on a frozen version.
func (t *Table) refused() error { return fmt.Errorf("catalog: write to %s: %w", t.Name, ErrFrozen) }

// Insert adds a tuple to the table and all its indexes.
func (t *Table) Insert(tu rel.Tuple) (storage.RID, error) {
	if t.frozen {
		return storage.RID{}, t.refused()
	}
	if len(tu) != t.Schema.Len() {
		return storage.RID{}, fmt.Errorf("catalog: arity mismatch inserting into %s: got %d, want %d", t.Name, len(tu), t.Schema.Len())
	}
	for i := range tu {
		if tu[i].Kind != t.Schema.Col(i).Type {
			return storage.RID{}, fmt.Errorf("catalog: type mismatch in %s column %s: %v", t.Name, t.Schema.Col(i).Name, tu[i])
		}
	}
	var buf [128]byte // the heap and the trees copy what they keep
	rec := tu.Encode(buf[:0])
	rid, err := t.Heap.Insert(rec)
	if err != nil {
		return storage.RID{}, err
	}
	for _, idx := range t.Indexes {
		if err := idx.Tree.Insert(tu.AppendKey(buf[:0], idx.Ords), rid); err != nil {
			return storage.RID{}, err
		}
	}
	t.rows++
	t.bytes += len(rec)
	return rid, nil
}

// InsertRecord adds an already-encoded tuple — a record another
// table's heap stores, or an operator tree emits — as it is: the record
// of a tuple of the table's column types, which the caller has checked.
// An index's key is the record's indexed columns, read in place.
func (t *Table) InsertRecord(rec []byte) error {
	if t.frozen {
		return t.refused()
	}
	var sp rel.Spans
	if len(t.Indexes) > 0 {
		if err := sp.Read(rec, t.Schema); err != nil {
			return fmt.Errorf("catalog: insert into %s: %w", t.Name, err)
		}
	}
	rid, err := t.Heap.Insert(rec)
	if err != nil {
		return err
	}
	var buf [128]byte // the tree copies the key into its leaf
	for _, idx := range t.Indexes {
		if err := idx.Tree.Insert(sp.AppendCols(buf[:0], idx.Ords), rid); err != nil {
			return err
		}
	}
	t.rows++
	t.bytes += len(rec)
	return nil
}

// DeleteRID removes the tuple at rid from the heap and all indexes. The
// caller supplies the decoded tuple (executors always have it in hand).
func (t *Table) DeleteRID(rid storage.RID, tu rel.Tuple) error {
	if t.frozen {
		return t.refused()
	}
	var buf [128]byte
	for _, idx := range t.Indexes {
		if err := idx.Tree.Delete(tu.AppendKey(buf[:0], idx.Ords), rid); err != nil {
			return err
		}
	}
	if err := t.Heap.Delete(rid); err != nil {
		return err
	}
	t.rows--
	t.bytes -= len(tu.Encode(buf[:0]))
	return nil
}

// Truncate removes all tuples and clears all indexes; the heap and the
// indexes' counters run on.
func (t *Table) Truncate() error {
	if t.frozen {
		return t.refused()
	}
	if err := t.Heap.Truncate(); err != nil {
		return err
	}
	for _, idx := range t.Indexes {
		idx.Tree = idx.Tree.Empty()
	}
	t.rows, t.bytes = 0, 0
	return nil
}

// DecodeAll decodes the whole table, in chain order, into one block of
// its own: one value slab sized by the maintained row count, and one
// string, the character buffer sized once by the maintained record
// bytes and handed over (rel.BlockDecoder.FinishLast). It is one scan
// pass.
func (t *Table) DecodeAll() (rel.Block, error) {
	dec := rel.NewBlockDecoder(t.Schema)
	dec.Begin(t.rows, t.bytes)
	err := t.Heap.ScanPages(func(pg *storage.Page) error {
		return t.decodePage(&dec, pg)
	})
	if err != nil {
		return rel.Block{}, err
	}
	return dec.FinishLast(), nil
}

// AppendRows appends the whole table, in chain order, to buf as one row
// block (rel.AppendRows's layout): its records as they are stored, none
// decoded. It is one scan pass. buf grows once, by the maintained row
// count and record bytes, which is exact when no record is 128 bytes or
// longer; a longer one takes more length bytes, and when they outgrow
// that room the block is copied once more, to its length, so a block
// kept (a memo) holds no slack.
func (t *Table) AppendRows(buf []byte) ([]byte, error) {
	var h [16]byte
	hdr := rel.AppendRowsHeader(h[:0], t.Schema, t.rows)
	buf = slices.Grow(buf, len(hdr)+t.rows+t.bytes)
	buf = append(buf, hdr...)
	room := cap(buf)
	rows := 0
	err := t.Heap.ScanPages(func(pg *storage.Page) error {
		for s := 0; s < pg.SlotCount(); s++ {
			if rec := pg.Record(s); rec != nil {
				buf = rel.AppendRecord(buf, rec)
				rows++
			}
		}
		return nil
	})
	if err == nil && rows != t.rows {
		err = fmt.Errorf("catalog: table %s holds %d records, counted %d", t.Name, rows, t.rows)
	}
	if cap(buf) != room {
		buf = slices.Clone(buf)
	}
	return buf, err
}

// recount sets the maintained row count and record bytes from the
// heap: the table's pages read once, at open.
func (t *Table) recount() error {
	t.rows, t.bytes = 0, 0
	return t.Heap.ScanPages(func(pg *storage.Page) error {
		t.rows += pg.LiveRecords()
		t.bytes += recordBytes(pg)
		return nil
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

// Scan calls fn with every tuple and the RID it is stored at, each
// page's rows decoded into a block of their own.
func (t *Table) Scan(fn func(rid storage.RID, tu rel.Tuple) error) error {
	dec := rel.NewBlockDecoder(t.Schema)
	return t.Heap.ScanPages(func(pg *storage.Page) error {
		dec.Begin(pg.LiveRecords(), recordBytes(pg))
		if err := t.decodePage(&dec, pg); err != nil {
			return err
		}
		b, row := dec.FinishLast(), 0
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

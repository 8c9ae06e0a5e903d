// Package catalog maintains the database schema: tables, their columns,
// and their indexes. The catalog itself is stored in a heap file rooted
// in the pager superblock, so a database file is self-describing. Index
// trees are memory-resident and rebuilt from table heaps at open time.
//
// The catalog also owns index maintenance: all tuple traffic goes
// through Table.Insert, InsertRecord and DeleteRID, which keep every
// index of the table synchronized with the heap, each index's key read
// from the stored record in place.
//
// And it owns copy-on-write: Freeze makes every stored table version
// read-only, and Writable, which every write resolves its target
// through, replaces a frozen version on its first write by a version
// that shares its heap pages and index nodes (shadow). The new version
// copies a page or a node only when it first writes it, so a commit
// costs what it writes, not the size of the tables it writes to. A
// stored table's catalog record holds its heap's page directory, and
// is rewritten whenever the directory changes.
package catalog

import (
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

	// gen is the generation that first published this version, stamped
	// by Freeze, and 0 while the version is writable. A stamped version
	// is frozen: its mutators refuse, and Writable copies it. Set by the
	// single writer before the version is published, and never cleared.
	gen uint64

	// st is what only a stored table keeps; nil for a temp table.
	st *storedTable
	// rows is a maintained tuple count used by the planner for join
	// ordering and build-side selection.
	rows int
	// bytes is the maintained length of the live records together,
	// kept beside rows: a reader of the whole table sizes its buffer by
	// it.
	bytes int
}

// storedTable is what only a stored table keeps: its catalog record,
// which its mutators rewrite when the heap's directory changes, and the
// log of the index keys its writes wrote (Table.Writes).
type storedTable struct {
	rid storage.RID // location of the table's catalog record
	cat *Catalog
	// keys[i] holds the KeyHash of each key the version's writes wrote
	// on Indexes[i] since shadow made it writable; logged counts them.
	// whole is set when the writes may have changed anything: the
	// version was created or opened rather than shadowed, or it was
	// truncated, gained or lost an index, or logged maxLoggedKeys keys.
	keys   [][]uint64
	logged int
	whole  bool
}

// maxLoggedKeys bounds a version's write log: a write beyond it counts
// as writing everything, and the log is dropped.
const maxLoggedKeys = 4096

// KeyHash hashes an index key as the tree stores it (a record's indexed
// columns, as rel.Spans.AppendCols reads them): the hash a version's
// write log holds for each key its writes wrote, and the one a reader
// records for each key it probes (exec.Reads). It is FNV-1a finished by
// splitmix64's mixer, a fixed function, so a run's read sets and their
// false positives repeat.
func KeyHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	// splitmix64's finalizer: every bit of h moves every bit of the
	// result, which a Bloom filter's bit positions are cut from.
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// Writes reports what this version's writes changed since it replaced
// a frozen version (Catalog.Writable): writes[i] holds the KeyHash of
// every key they inserted or deleted on Indexes[i]. Every row written
// is logged on every index, so a reader that found a key's postings
// unchanged on one index read rows no write touched. ok is false when
// the writes may have changed anything (a temp table's, a created
// table's, and see storedTable.whole).
func (t *Table) Writes() (writes [][]uint64, ok bool) {
	if t.st == nil || t.st.whole {
		return nil, false
	}
	return t.st.keys, true
}

// logKey logs key, which a write wrote on Indexes[i].
func (t *Table) logKey(i int, key []byte) {
	st := t.st
	if st == nil || st.whole {
		return
	}
	if st.logged == maxLoggedKeys {
		t.writesAll()
		return
	}
	if st.keys == nil {
		st.keys = make([][]uint64, len(t.Indexes))
	}
	st.keys[i] = append(st.keys[i], KeyHash(key))
	st.logged++
}

// writesAll marks the version as having written everything.
func (t *Table) writesAll() {
	if t.st != nil {
		t.st.keys, t.st.logged, t.st.whole = nil, 0, true
	}
}

// Rows returns the maintained tuple count (exact; updated on every
// insert, delete and truncate, and recounted at open).
func (t *Table) Rows() int { return t.rows }

// Bytes returns the maintained length of the live records together.
func (t *Table) Bytes() int { return t.bytes }

// Gen returns the generation that first published this version, or 0
// while it is writable.
func (t *Table) Gen() uint64 { return t.gen }

// Index is a secondary index over a subset of a table's columns.
type Index struct {
	Name  string
	Table string
	Cols  []string
	Ords  []int // column ordinals in the table schema
	// Tree maps a record's Ords columns, as the record encodes them, to
	// the RIDs it is stored at. Table.Insert, InsertRecord, DeleteRID
	// and Truncate keep it in step with the heap; readers probe it with
	// keys encoded the same way.
	Tree *index.BTree
	Temp bool

	rid storage.RID
	// rec and row are the scratch entry reads the index's keys with: a
	// copy of the record written, so that a writer's record may stay on
	// its stack, and its columns.
	rec []byte
	row rel.Spans
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
	// the last Freeze: a frozen version replaced, a stored table created
	// or dropped. touched are the versions made since — the writable
	// versions and the created tables, whose writes Moved counts — and
	// copying the time the replacing took.
	moved   bool
	touched []*Table
	copying time.Duration
}

// Copies is what the writes since the last Freeze cost: the heap pages
// and index nodes the touched table versions wrote — copies of pages and
// nodes a frozen version shares, and the pages and nodes they added —
// and the time spent making frozen versions writable.
type Copies struct {
	Pages, Nodes int64
	Time         time.Duration
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
	if root == nil {
		c.heap = storage.CreateHeap(pager)
		if err := c.saveRoot(); err != nil {
			return nil, err
		}
		return c, nil
	}
	if c.heap, _, err = storage.LoadHeap(pager, root); err != nil {
		return nil, err
	}
	if err := c.load(); err != nil {
		return nil, err
	}
	return c, nil
}

// saveRoot stores the catalog heap's directory in the superblock when it
// changed.
func (c *Catalog) saveRoot() error {
	if !c.heap.DirChanged() {
		return nil
	}
	var buf [512]byte
	root, err := c.heap.AppendDir(buf[:0])
	if err != nil {
		return err
	}
	return c.pager.SetRoot(root)
}

// insertRecord adds a record to the catalog heap.
func (c *Catalog) insertRecord(rec []byte) (storage.RID, error) {
	rid, err := c.heap.Insert(rec)
	if err != nil {
		return rid, err
	}
	return rid, c.saveRoot()
}

// writeRecord writes t's catalog record: the record is rewritten in
// full, since the heap directory it ends with changes length.
func (c *Catalog) writeRecord(t *Table) error {
	if err := c.heap.Delete(t.st.rid); err != nil {
		return err
	}
	var buf [512]byte
	rec, err := appendTableRecord(buf[:0], t)
	if err != nil {
		return err
	}
	t.st.rid, err = c.insertRecord(rec)
	return err
}

// saveDir rewrites a stored table's record after a write that changed
// its heap's directory.
func (t *Table) saveDir() error {
	if t.st == nil || !t.Heap.DirChanged() {
		return nil
	}
	return t.st.cat.writeRecord(t)
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
			t, err := decodeTableRecord(c.pager, rec)
			if err != nil {
				return err
			}
			t.st = &storedTable{rid: rid, cat: c, whole: true}
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

// fillIndex inserts every row of t into idx's tree (entry) and trims the
// tree's slabs to what the rows need.
func fillIndex(t *Table, idx *Index) error {
	var buf [128]byte // the tree copies the key into its leaf
	err := t.Heap.Scan(func(rid storage.RID, rec []byte) error {
		_, err := idx.entry(t, rec, buf[:0], rid, false)
		return err
	})
	idx.Tree.Trim()
	return err
}

// entry inserts, or with del deletes, idx's entry for rec, a record of
// t stored at rid, and returns its key: the record's indexed columns,
// read in place into buf. It is the one way an index key is made from a
// row — Insert, InsertRecord, DeleteRID and index builds all go through
// it — and it allocates only when rec is longer than every record the
// index wrote before.
func (idx *Index) entry(t *Table, rec, buf []byte, rid storage.RID, del bool) ([]byte, error) {
	idx.rec = append(idx.rec[:0], rec...)
	if err := idx.row.Read(idx.rec, t.Schema); err != nil {
		return nil, fmt.Errorf("catalog: table %s: %w", t.Name, err)
	}
	key := idx.row.AppendCols(buf, idx.Ords)
	if del {
		return key, idx.Tree.Delete(key, rid)
	}
	return key, idx.Tree.Insert(key, rid)
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// TableBytes is Table for a name held in bytes, which it does not
// keep: the lookup builds no string.
func (c *Catalog) TableBytes(name []byte) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[string(name)]
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
	t := &Table{Name: name, Schema: schema, Temp: temp}
	if temp {
		t.Heap = storage.CreateTempHeap(c.pager)
	} else {
		t.Heap = storage.CreateHeap(c.pager)
		rec, err := appendTableRecord(nil, t)
		if err != nil {
			return nil, err
		}
		t.st = &storedTable{cat: c, whole: true}
		if t.st.rid, err = c.insertRecord(rec); err != nil {
			return nil, err
		}
		c.moved = true
		c.touched = append(c.touched, t)
	}
	c.mu.Lock()
	c.tables[name] = t
	c.mu.Unlock()
	return t, nil
}

// DropTable removes a table and its indexes, and releases the pages the
// table's version owns. The version itself is left whole — its Indexes
// too: a frozen one is read by the snapshots that publish it, and its
// pages stay until their store frees them, once every snapshot that
// can reach the version has drained (snapshot.Store).
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
	for _, idx := range t.Indexes {
		if err := c.forgetIndex(idx); err != nil {
			return err
		}
	}
	if !t.Temp {
		if err := c.heap.Delete(t.st.rid); err != nil {
			return err
		}
		c.moved = true
	}
	c.mu.Lock()
	delete(c.tables, name)
	c.mu.Unlock()
	if t.gen != 0 {
		return nil
	}
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
	if t.gen != 0 {
		return nil, fmt.Errorf("index %s on %s: %w", name, table, ErrFrozen)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: index %s has no columns", name)
	}
	idx := &Index{Name: name, Table: table, Cols: cols, Temp: temp || t.Temp}
	if err := buildIndex(t, idx); err != nil {
		return nil, err
	}
	t.writesAll()
	if !idx.Temp {
		rid, err := c.insertRecord(encodeIndexRecord(idx))
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

// DropIndex removes an index. On a frozen table version it first takes
// the writable copy (Writable), as every write does, and removes the
// index from the copy: the frozen version keeps its Indexes for the
// snapshots reading it.
func (c *Catalog) DropIndex(name string) error {
	//dkblint:locksafe DDL serializes on ddlMu off the query path; heap/index I/O must be atomic with the catalog mutation
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	c.mu.RLock()
	idx, ok := c.indexes[name]
	var t *Table
	if ok {
		t = c.tables[idx.Table]
	}
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("catalog: no index %s", name)
	}
	if t != nil && t.gen != 0 {
		t = c.shadowDDL(t)
		c.mu.RLock()
		idx = c.indexes[name]
		c.mu.RUnlock()
	}
	if err := c.forgetIndex(idx); err != nil {
		return err
	}
	if t == nil {
		return nil
	}
	c.mu.Lock()
	t.writesAll()
	if i := slices.Index(t.Indexes, idx); i >= 0 {
		t.Indexes = slices.Delete(t.Indexes, i, i+1)
	}
	c.mu.Unlock()
	return nil
}

// forgetIndex deletes idx's catalog record and its name; the table
// version holding it is left as it is. c.ddlMu must be held, c.mu not:
// the record delete is heap I/O.
func (c *Catalog) forgetIndex(idx *Index) error {
	if !idx.Temp {
		if err := c.heap.Delete(idx.rid); err != nil {
			return err
		}
	}
	c.mu.Lock()
	delete(c.indexes, idx.Name)
	c.mu.Unlock()
	return nil
}

// Freeze makes every stored (non-temp) table version read-only, stamps
// each writable one with gen (> 0), the generation that publishes it
// first, and returns them by name: the table map a snapshot publishes.
// Each version's next write goes to a copy (Writable). Freeze clears
// what Moved reports.
func (c *Catalog) Freeze(gen uint64) map[string]*Table {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*Table, len(c.tables))
	for name, t := range c.tables {
		if !t.Temp {
			if t.gen == 0 {
				t.gen = gen
			}
			out[name] = t
		}
	}
	clear(c.touched)
	c.moved, c.touched, c.copying = false, c.touched[:0], 0
	return out
}

// Moved reports whether the stored table set changed after the last
// Freeze — a frozen version replaced, a stored table created or dropped
// — and what the writes since cost.
func (c *Catalog) Moved() (bool, Copies) {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	cost := Copies{Time: c.copying}
	for _, t := range c.touched {
		cost.Pages += int64(t.Heap.Written())
		for _, idx := range t.Indexes {
			cost.Nodes += int64(idx.Tree.Written())
		}
	}
	return c.moved, cost
}

// Writable returns the named table for a write, or nil when there is
// none. A frozen version is first replaced by its copy (shadow), which
// is returned; the frozen one stays readable by whoever holds it.
func (c *Catalog) Writable(name string) (*Table, error) {
	t := c.Table(name)
	if t == nil || t.gen == 0 {
		return t, nil
	}
	return c.shadow(t)
}

// shadow replaces the frozen version t with a writable version that
// shares t's heap pages (storage.HeapFile.Fork) and index nodes
// (index.BTree.Fork): it reads no record and copies no page or node;
// the new version copies each page and node when it first writes it.
// Heap and trees count their traffic in the original's counters, so a
// table's counters never restart at a copy. The frozen version is
// unchanged and stays fully readable (snapshots holding it keep
// scanning its heap and probing its indexes), but is no longer reachable
// by name; the snapshot store frees the pages it holds and its
// successor does not once no snapshot references it. The two share the
// catalog record until the new version's directory first changes.
func (c *Catalog) shadow(t *Table) (*Table, error) {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	return c.shadowDDL(t), nil
}

// shadowDDL is shadow with c.ddlMu held.
func (c *Catalog) shadowDDL(t *Table) *Table {
	start := time.Now()
	nt := &Table{Name: t.Name, Schema: t.Schema, Heap: t.Heap.Fork(), st: &storedTable{rid: t.st.rid, cat: c}, rows: t.rows, bytes: t.bytes}
	nt.Indexes = make([]*Index, len(t.Indexes))
	for i, idx := range t.Indexes {
		// Index catalog records reference the table by name, so the
		// persisted record (and its rid) carries over unchanged.
		nt.Indexes[i] = &Index{Name: idx.Name, Table: idx.Table, Cols: idx.Cols, Ords: idx.Ords, Tree: idx.Tree.Fork(), Temp: idx.Temp, rid: idx.rid}
	}
	c.mu.Lock()
	c.tables[t.Name] = nt
	for _, ni := range nt.Indexes {
		c.indexes[ni.Name] = ni
	}
	c.mu.Unlock()
	c.moved = true
	c.touched = append(c.touched, nt)
	c.copying += time.Since(start)
	return nt
}

// Census counts a database's pages outside the temp region by owner.
// Taken when no commit is in flight and no superseded table version
// awaits reclamation (a database just opened, say), the owners and
// Unreached partition the pages.
type Census struct {
	Pages     int // the pages outside the temp region: the file's, on disk
	Super     int // the superblock
	Catalog   int // the catalog heap's pages
	Tables    int // the stored tables' pages
	Free      int // the free list
	Unreached int // the pages none of them reaches
}

// Owned returns the pages the catalog and the stored tables hold.
func (cs Census) Owned() int { return cs.Super + cs.Catalog + cs.Tables }

// Census walks the superblock, the catalog heap's pages, every stored
// table's pages (its heap's directory, and the pages the stored
// directory spills to) and the free list, and counts the pages each
// reaches and the pages none reaches. A page reached twice, or one
// outside the file, is an error: two owners would overwrite each other.
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
	if err := c.heap.EachPage(reach("the catalog", &cs.Catalog)); err != nil {
		return cs, err
	}
	for _, t := range tables {
		if err := t.Heap.EachPage(reach("table "+t.Name, &cs.Tables)); err != nil {
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

// Insert adds a tuple to the table and all its indexes. It is where
// rows from outside the engine enter it, so it checks the tuple's arity
// and types, then inserts the tuple's record (InsertRecord).
func (t *Table) Insert(tu rel.Tuple) (storage.RID, error) {
	if len(tu) != t.Schema.Len() {
		return storage.RID{}, fmt.Errorf("catalog: arity mismatch inserting into %s: got %d, want %d", t.Name, len(tu), t.Schema.Len())
	}
	for i := range tu {
		if tu[i].Kind != t.Schema.Col(i).Type {
			return storage.RID{}, fmt.Errorf("catalog: type mismatch in %s column %s: %v", t.Name, t.Schema.Col(i).Name, tu[i])
		}
	}
	var buf [128]byte // the heap copies the record
	return t.insert(tu.Encode(buf[:0]))
}

// InsertRecord adds an already-encoded tuple — a record another
// table's heap stores, or an operator tree emits — as it is: the record
// of a tuple of the table's column types, which the caller has checked.
func (t *Table) InsertRecord(rec []byte) error {
	_, err := t.insert(rec)
	return err
}

// insert adds rec to the heap, then its entries to every index.
func (t *Table) insert(rec []byte) (storage.RID, error) {
	if t.gen != 0 {
		return storage.RID{}, t.refused()
	}
	rid, err := t.Heap.Insert(rec)
	if err == nil {
		err = t.entries(rec, rid, false)
	}
	if err != nil {
		return storage.RID{}, err
	}
	t.rows++
	t.bytes += len(rec)
	return rid, t.saveDir()
}

// DeleteRID removes rec, the record stored at rid, from all indexes and
// the heap. The keys are read from rec, which the caller has in hand
// from the scan that found it: nothing is decoded.
func (t *Table) DeleteRID(rid storage.RID, rec []byte) error {
	if t.gen != 0 {
		return t.refused()
	}
	err := t.entries(rec, rid, true)
	if err == nil {
		err = t.Heap.Delete(rid)
	}
	if err != nil {
		return err
	}
	t.rows--
	t.bytes -= len(rec)
	return t.saveDir()
}

// entries inserts, or with del deletes, the entry of rec, stored at rid,
// in every index (Index.entry), and logs each key (logKey).
func (t *Table) entries(rec []byte, rid storage.RID, del bool) error {
	var buf [128]byte // the trees copy the key into a leaf
	for i, idx := range t.Indexes {
		key, err := idx.entry(t, rec, buf[:0], rid, del)
		if err != nil {
			return err
		}
		t.logKey(i, key)
	}
	return nil
}

// Truncate removes all tuples and clears all indexes; the heap and the
// indexes' counters run on. It copies nothing: the pages the version
// owns are freed, and the ones it shares stay with the frozen version.
func (t *Table) Truncate() error {
	if t.gen != 0 {
		return t.refused()
	}
	if err := t.Heap.Truncate(); err != nil {
		return err
	}
	for _, idx := range t.Indexes {
		idx.Tree = idx.Tree.Empty()
	}
	t.writesAll()
	t.rows, t.bytes = 0, 0
	return t.saveDir()
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

// appendTableRecord appends t's catalog record to buf: its name, its
// columns, and its heap's stored directory, which may write the pages
// the directory spills to (storage.HeapFile.AppendDir).
func appendTableRecord(buf []byte, t *Table) ([]byte, error) {
	buf = append(buf, recTable)
	buf = appendString(buf, t.Name)
	buf = binary.AppendUvarint(buf, uint64(t.Schema.Len()))
	for _, col := range t.Schema.Columns() {
		buf = appendString(buf, col.Name)
		buf = append(buf, byte(col.Type))
	}
	return t.Heap.AppendDir(buf)
}

// decodeTableRecord decodes a table record and opens the table's heap.
func decodeTableRecord(p *storage.Pager, rec []byte) (*Table, error) {
	buf := rec[1:]
	name, buf, err := readString(buf)
	if err != nil {
		return nil, err
	}
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
	h, _, err := storage.LoadHeap(p, buf)
	if err != nil {
		return nil, fmt.Errorf("catalog: table %s: %w", name, err)
	}
	return &Table{Name: name, Schema: schema, Heap: h}, nil
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

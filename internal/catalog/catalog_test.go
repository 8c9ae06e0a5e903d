package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// scanTuples calls fn with every row of tb, decoded, and the RID it is
// stored at.
func scanTuples(tb *Table, fn func(rid storage.RID, tu rel.Tuple) error) error {
	return tb.Heap.Scan(func(rid storage.RID, rec []byte) error {
		tu, err := rel.DecodeTuple(rec, tb.Schema)
		if err != nil {
			return err
		}
		return fn(rid, tu)
	})
}

// getTuple decodes the row of tb stored at rid.
func getTuple(tb *Table, rid storage.RID) (tu rel.Tuple, err error) {
	err = tb.Heap.Read(rid, func(rec []byte) error {
		tu, err = rel.DecodeTuple(rec, tb.Schema)
		return err
	})
	return tu, err
}

// countTuples counts the rows of tb in one scan.
func countTuples(tb *Table) (n int, err error) {
	err = tb.Heap.Scan(func(storage.RID, []byte) error { n++; return nil })
	return n, err
}

func memCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := Open(storage.NewMemPager(512))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTableSizeof pins a table version at 96 bytes, a size class of
// its own: an evaluation creates a temp table per derived predicate and
// per delta, and a stored table's catalog record and write log sit
// behind one pointer (storedTable) that a temp table leaves nil.
func TestTableSizeof(t *testing.T) {
	if got := unsafe.Sizeof(Table{}); got > 96 {
		t.Fatalf("catalog.Table is %d bytes, want at most 96", got)
	}
}

// TestIndexKeysAllocateNothing: on a table of two CHAR columns with an
// index on each, Insert, InsertRecord and DeleteRID read every index's
// key from the row's record in place and allocate nothing a row — the
// heap pages and tree nodes they add come to less than one object a row.
func TestIndexKeysAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := memCatalog(t)
	tb, err := c.CreateTable("e", edgeSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"src", "dst"} {
		if _, err := c.CreateIndex("e_"+col, "e", []string{col}, false); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200 // AllocsPerRun calls its function runs+1 times
	var rows []rel.Tuple
	var recs [][]byte
	for i := 0; i < 2*(runs+1); i++ {
		rows = append(rows, rel.Tuple{rel.NewString(fmt.Sprint("person_", i%37)), rel.NewString(fmt.Sprint("person_", i))})
		recs = append(recs, rows[i].Encode(nil))
	}
	var rids []storage.RID
	next := 0
	insert := func() {
		rid, err := tb.Insert(rows[next])
		if err != nil {
			t.Fatal(err)
		}
		rids, next = append(rids, rid), next+1
	}
	insertRecord := func() {
		if err := tb.InsertRecord(recs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	rids = make([]storage.RID, 0, runs+1)
	if n := testing.AllocsPerRun(runs, insert); n != 0 {
		t.Errorf("Insert allocates %.2f objects a row, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, insertRecord); n != 0 {
		t.Errorf("InsertRecord allocates %.2f objects a row, want 0", n)
	}
	next = 0
	deleteRID := func() {
		if err := tb.DeleteRID(rids[next], recs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if n := testing.AllocsPerRun(runs, deleteRID); n != 0 {
		t.Errorf("DeleteRID allocates %.2f objects a row, want 0", n)
	}
	if got := tb.Rows(); got != runs+1 {
		t.Fatalf("the table holds %d rows, want %d", got, runs+1)
	}
	for _, idx := range tb.Indexes {
		n := 0
		for _, rows := range indexAnswers(t, tb, idx) {
			n += len(rows)
		}
		if n != runs+1 || idx.Tree.Len() != n {
			t.Errorf("index %s answers %d rows in %d entries, want %d", idx.Name, n, idx.Tree.Len(), runs+1)
		}
	}
}

// TestWritesLogKeys: a version made writable from a frozen one logs
// the KeyHash of every key its inserts, record inserts and deletes
// write, on each index; a created version, a truncate, a new index and
// a log past maxLoggedKeys count as writing everything.
func TestWritesLogKeys(t *testing.T) {
	c := memCatalog(t)
	tb, err := c.CreateTable("e", edgeSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]string{{"src"}, {"dst"}} {
		if _, err := c.CreateIndex("e_ix_"+cols[0], "e", cols, false); err != nil {
			t.Fatal(err)
		}
	}
	edge := func(src, dst string) rel.Tuple { return rel.Tuple{rel.NewString(src), rel.NewString(dst)} }
	rid, err := tb.Insert(edge("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Writes(); ok {
		t.Error("a created version logs its writes by key")
	}
	c.Freeze(1)
	w, err := c.Writable("e")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert(edge("c", "d")); err != nil {
		t.Fatal(err)
	}
	if err := w.InsertRecord(edge("g", "h").Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.DeleteRID(rid, edge("a", "b").Encode(nil)); err != nil {
		t.Fatal(err)
	}
	hash := func(v string) uint64 { return KeyHash(rel.Tuple{rel.NewString(v)}.AppendKey(nil, nil)) }
	writes, ok := w.Writes()
	want := [][]uint64{{hash("c"), hash("g"), hash("a")}, {hash("d"), hash("h"), hash("b")}}
	if !ok || fmt.Sprint(writes) != fmt.Sprint(want) {
		t.Fatalf("writes %v (%v), want %v", writes, ok, want)
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Writes(); ok {
		t.Error("a truncated version logs its writes by key")
	}

	c.Freeze(2)
	w, err = c.Writable("e")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("e_ix_both", "e", []string{"src", "dst"}, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Writes(); ok {
		t.Error("a version that gained an index logs its writes by key")
	}

	c.Freeze(3)
	w, err = c.Writable("e")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxLoggedKeys/3; i++ {
		if _, err := w.Insert(edge(fmt.Sprint(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := w.Writes(); !ok {
		t.Fatalf("%d keys logged, within the bound, counted as everything", maxLoggedKeys/3*3)
	}
	if _, err := w.Insert(edge("y", "x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Writes(); ok {
		t.Errorf("a log past %d keys is kept", maxLoggedKeys)
	}
}

func edgeSchema() *rel.Schema {
	return rel.MustSchema(rel.Column{Name: "src", Type: rel.TypeString}, rel.Column{Name: "dst", Type: rel.TypeString})
}

func TestCreateDropTable(t *testing.T) {
	c := memCatalog(t)
	tb, err := c.CreateTable("parent", edgeSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Table("parent") != tb {
		t.Fatal("table not registered")
	}
	if _, err := c.CreateTable("parent", edgeSchema(), false); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if err := c.DropTable("parent"); err != nil {
		t.Fatal(err)
	}
	if c.Table("parent") != nil {
		t.Fatal("dropped table still visible")
	}
	if err := c.DropTable("parent"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestInsertScanTyped(t *testing.T) {
	c := memCatalog(t)
	tb, err := c.CreateTable("parent", edgeSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, err := tb.Insert(rel.Tuple{rel.NewString(fmt.Sprintf("p%d", i)), rel.NewString(fmt.Sprintf("c%d", i))})
		if err != nil {
			t.Fatal(err)
		}
	}
	n, err := countTuples(tb)
	if err != nil || n != 100 {
		t.Fatalf("count = %d, %v", n, err)
	}
	// Arity and type errors.
	if _, err := tb.Insert(rel.Tuple{rel.NewString("x")}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := tb.Insert(rel.Tuple{rel.NewInt(1), rel.NewString("y")}); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestIndexMaintenance(t *testing.T) {
	c := memCatalog(t)
	tb, err := c.CreateTable("parent", edgeSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("parent_src", "parent", []string{"src"}, false); err != nil {
		t.Fatal(err)
	}
	var rids []storage.RID
	var tuples []rel.Tuple
	for i := 0; i < 50; i++ {
		tu := rel.Tuple{rel.NewString(fmt.Sprintf("p%d", i%10)), rel.NewString(fmt.Sprintf("c%d", i))}
		rid, err := tb.Insert(tu)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		tuples = append(tuples, tu)
	}
	idx := c.Index("parent_src")
	if idx == nil {
		t.Fatal("index not registered")
	}
	got := idx.Tree.Lookup(rel.Tuple{rel.NewString("p3")}.Encode(nil))
	if len(got) != 5 {
		t.Fatalf("index lookup found %d, want 5", len(got))
	}
	// Delete updates the index.
	if err := tb.DeleteRID(rids[3], tuples[3].Encode(nil)); err != nil { // p3,c3
		t.Fatal(err)
	}
	if got := idx.Tree.Lookup(rel.Tuple{rel.NewString("p3")}.Encode(nil)); len(got) != 4 {
		t.Fatalf("after delete, index has %d, want 4", len(got))
	}
	// Truncate clears the index.
	if err := tb.Truncate(); err != nil {
		t.Fatal(err)
	}
	if got := idx.Tree.Lookup(rel.Tuple{rel.NewString("p3")}.Encode(nil)); len(got) != 0 {
		t.Fatalf("after truncate, index has %d entries", len(got))
	}
}

// indexAnswers returns every key of idx with the rows its postings
// point at in t's heap, each key's rows sorted: what the index answers,
// whatever order its postings are in. Each row must be filed under its
// own key.
func indexAnswers(t *testing.T, tb *Table, idx *Index) map[string][]string {
	t.Helper()
	if err := idx.Tree.Validate(); err != nil {
		t.Fatalf("index %s: %v", idx.Name, err)
	}
	out := make(map[string][]string)
	err := idx.Tree.Postings(nil, func(rids []storage.RID) error {
		for _, rid := range rids {
			tu, err := getTuple(tb, rid)
			if err != nil {
				return err
			}
			key := tu.AppendKey(nil, idx.Ords)
			if !slices.Contains(idx.Tree.Lookup(key), rid) {
				return fmt.Errorf("%s is not filed under its key %x", rid, key)
			}
			out[string(key)] = append(out[string(key)], tu.String())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("index %s: %v", idx.Name, err)
	}
	for _, rows := range out {
		slices.Sort(rows)
	}
	return out
}

// TestShadowTableClonesIndexes: the version a first write makes of a
// frozen table of several pages with dead slots shares every heap page
// and index node with it and wrote none. Deleting one row copies the
// one page the row is on and, in each index, the path to the leaf it
// leaves; every other page stays shared. Then every index of the new
// version answers as an index built from scratch over the new heap
// does, and the old version answers as before.
func TestShadowTableClonesIndexes(t *testing.T) {
	c := memCatalog(t)
	tb, err := c.CreateTable("e", edgeSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]string{{"src"}, {"dst", "src"}} {
		if _, err := c.CreateIndex("e_"+strings.Join(cols, "_"), "e", cols, false); err != nil {
			t.Fatal(err)
		}
	}
	var rids []storage.RID
	var rows []rel.Tuple
	for i := 0; i < 1500; i++ {
		tu := rel.Tuple{rel.NewString(fmt.Sprint("p", i%40)), rel.NewString(fmt.Sprint("c", i%97))}
		rid, err := tb.Insert(tu)
		if err != nil {
			t.Fatal(err)
		}
		rids, rows = append(rids, rid), append(rows, tu)
	}
	for i := 0; i < len(rids); i += 3 {
		if err := tb.DeleteRID(rids[i], rows[i].Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	old := make(map[string]map[string][]string)
	for _, idx := range tb.Indexes {
		old[idx.Name] = indexAnswers(t, tb, idx)
	}

	if c.Freeze(1)["e"] != tb {
		t.Fatal("Freeze does not return the table")
	}
	nt, err := c.Writable("e")
	if err != nil || nt != c.Table("e") {
		t.Fatalf("Writable returned %p, %v; the catalog names %p", nt, err, c.Table("e"))
	}
	pages := func(tb *Table) []storage.PageID {
		var ids []storage.PageID
		if err := tb.Heap.EachPage(func(id storage.PageID) error { ids = append(ids, id); return nil }); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	oldPages := pages(tb)
	written := func() (nodes int) {
		for _, idx := range nt.Indexes {
			nodes += idx.Tree.Written()
		}
		return nodes
	}
	if nt == tb || !slices.Equal(pages(nt), oldPages) || len(oldPages) < 4 || nt.Rows() != tb.Rows() || nt.Heap.Written() != 0 || written() != 0 {
		t.Fatalf("new version %p on pages %v with %d rows, %d pages and %d nodes written; old %p on %v with %d",
			nt, pages(nt), nt.Rows(), nt.Heap.Written(), written(), tb, oldPages, tb.Rows())
	}
	if err := nt.DeleteRID(rids[1], rows[1].Encode(nil)); err != nil {
		t.Fatal(err)
	}
	newPages, height := pages(nt), 0
	for _, idx := range nt.Indexes {
		height += idx.Tree.Height()
	}
	diff := 0
	for i := range oldPages {
		if newPages[i] != oldPages[i] {
			diff++
		}
	}
	if len(newPages) != len(oldPages) || diff != 1 || nt.Heap.Written() != 1 || written() != height {
		t.Fatalf("deleting one row: %d of %d pages differ, %d pages and %d nodes written; want 1, 1 and the indexes' %d levels",
			diff, len(oldPages), nt.Heap.Written(), written(), height)
	}
	for _, idx := range slices.Clone(nt.Indexes) {
		fresh, err := c.CreateIndex("fresh_"+idx.Name, "e", idx.Cols, true)
		if err != nil {
			t.Fatal(err)
		}
		got, want := indexAnswers(t, nt, idx), indexAnswers(t, nt, fresh)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("index %s of the new version answers\n%v\na fresh one\n%v", idx.Name, got, want)
		}
		if len(got) == 0 {
			t.Errorf("index %s of the new version answers nothing", idx.Name)
		}
		if c.Index(idx.Name) != idx || idx.Tree == tb.Indexes[slices.Index(nt.Indexes, idx)].Tree {
			t.Errorf("index %s: the catalog does not name the new version's own tree", idx.Name)
		}
	}
	for _, idx := range tb.Indexes {
		if got := indexAnswers(t, tb, idx); fmt.Sprint(got) != fmt.Sprint(old[idx.Name]) {
			t.Errorf("index %s of the old version answers\n%v\nafter the shadow, was\n%v", idx.Name, got, old[idx.Name])
		}
	}
}

// TestFrozenVersionRefuses: every mutator of a frozen version returns
// ErrFrozen and leaves its rows, record bytes and index entries as they
// were.
func TestFrozenVersionRefuses(t *testing.T) {
	c := memCatalog(t)
	tb, err := c.CreateTable("e", edgeSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("e_src", "e", []string{"src"}, false); err != nil {
		t.Fatal(err)
	}
	row := rel.Tuple{rel.NewString("a"), rel.NewString("b")}
	rid, err := tb.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	if c.Freeze(1)["e"] != tb {
		t.Fatal("Freeze does not return the table")
	}
	state := func() string {
		var recs []string
		if err := tb.Heap.Scan(func(rid storage.RID, rec []byte) error {
			recs = append(recs, fmt.Sprintf("%v:%x", rid, rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(tb.Rows(), tb.Bytes(), recs, len(tb.Indexes), indexAnswers(t, tb, tb.Indexes[0]))
	}
	before := state()
	for _, m := range []struct {
		name  string
		write func() error
	}{
		{"Insert", func() error { _, err := tb.Insert(row); return err }},
		{"InsertRecord", func() error { return tb.InsertRecord(row.Encode(nil)) }},
		{"DeleteRID", func() error { return tb.DeleteRID(rid, row.Encode(nil)) }},
		{"Truncate", tb.Truncate},
		{"CreateIndex", func() error { _, err := c.CreateIndex("e_dst", "e", []string{"dst"}, false); return err }},
	} {
		if err := m.write(); !errors.Is(err, ErrFrozen) {
			t.Errorf("%s on a frozen version: err = %v, want ErrFrozen", m.name, err)
		}
		if got := state(); got != before {
			t.Errorf("%s on a frozen version changed it:\n%s\nwas\n%s", m.name, got, before)
		}
	}
	if c.Index("e_dst") != nil {
		t.Error("a refused CreateIndex registered its index")
	}
}

// TestWritableCopiesOnce: after a Freeze, the first write's Writable
// copies the table and the catalog names the copy; a second Writable
// in the same commit returns that copy and copies nothing; a table not
// written is not copied. Moved reports the copy until the next Freeze.
func TestWritableCopiesOnce(t *testing.T) {
	c := memCatalog(t)
	for _, name := range []string{"a", "b"} {
		tb, err := c.CreateTable(name, edgeSchema(), false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Insert(rel.Tuple{rel.NewString(name), rel.NewString(name)}); err != nil {
			t.Fatal(err)
		}
	}
	frozen := c.Freeze(1)
	if moved, _ := c.Moved(); moved {
		t.Fatal("Moved after a Freeze")
	}
	first, err := c.Writable("a")
	if err != nil {
		t.Fatal(err)
	}
	if first == frozen["a"] || c.Table("a") != first || first.Rows() != 1 {
		t.Fatalf("first write: Writable returned %p (%d rows), the frozen version is %p, the catalog names %p", first, first.Rows(), frozen["a"], c.Table("a"))
	}
	if moved, _ := c.Moved(); !moved {
		t.Error("a copy is not reported by Moved")
	}
	if _, err := first.Insert(rel.Tuple{rel.NewString("x"), rel.NewString("y")}); err != nil {
		t.Fatal(err)
	}
	pages := c.pager.PageCount()
	second, err := c.Writable("a")
	if err != nil || second != first {
		t.Fatalf("second write: Writable returned %p, %v; want the first copy %p", second, err, first)
	}
	if c.pager.PageCount() != pages || second.Rows() != 2 || frozen["a"].Rows() != 1 {
		t.Errorf("second write copied: %d pages, was %d; copy %d rows, frozen %d", c.pager.PageCount(), pages, second.Rows(), frozen["a"].Rows())
	}
	if c.Table("b") != frozen["b"] {
		t.Error("a table not written was copied")
	}
	if got := c.Freeze(2); got["a"] != first || got["b"] != frozen["b"] {
		t.Errorf("the next Freeze publishes a=%p b=%p, want the copy %p and the unwritten %p", got["a"], got["b"], first, frozen["b"])
	}
	if moved, _ := c.Moved(); moved {
		t.Error("Moved after the next Freeze")
	}
}

func TestIndexOnExistingData(t *testing.T) {
	c := memCatalog(t)
	tb, _ := c.CreateTable("e", edgeSchema(), false)
	for i := 0; i < 30; i++ {
		if _, err := tb.Insert(rel.Tuple{rel.NewString("a"), rel.NewString(fmt.Sprintf("b%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Index created after the fact must be built from the heap.
	if _, err := c.CreateIndex("e_src", "e", []string{"src"}, false); err != nil {
		t.Fatal(err)
	}
	if n := c.Index("e_src").Tree.Len(); n != 30 {
		t.Fatalf("built index has %d entries, want 30", n)
	}
}

func TestIndexErrors(t *testing.T) {
	c := memCatalog(t)
	if _, err := c.CreateIndex("i", "nosuch", []string{"x"}, false); err == nil {
		t.Fatal("index on missing table accepted")
	}
	c.CreateTable("e", edgeSchema(), false)
	if _, err := c.CreateIndex("i", "e", []string{"nocol"}, false); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if _, err := c.CreateIndex("i", "e", nil, false); err == nil {
		t.Fatal("index with no columns accepted")
	}
	if _, err := c.CreateIndex("ok", "e", []string{"src"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("ok", "e", []string{"dst"}, false); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	if err := c.DropIndex("nosuch"); err == nil {
		t.Fatal("drop of missing index accepted")
	}
}

func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	pager, err := storage.OpenPager(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(pager)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := c.CreateTable("facts", rel.MustSchema(
		rel.Column{Name: "id", Type: rel.TypeInt},
		rel.Column{Name: "name", Type: rel.TypeString},
	), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("facts_id", "facts", []string{"id"}, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := tb.Insert(rel.Tuple{rel.NewInt(int64(i)), rel.NewString(fmt.Sprintf("n%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Temp table must NOT persist.
	if _, err := c.CreateTable("scratch", edgeSchema(), true); err != nil {
		t.Fatal(err)
	}
	if err := pager.Close(); err != nil {
		t.Fatal(err)
	}

	pager2, err := storage.OpenPager(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer pager2.Close()
	c2, err := Open(pager2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Table("scratch") != nil {
		t.Fatal("temp table persisted")
	}
	tb2 := c2.Table("facts")
	if tb2 == nil {
		t.Fatal("table lost across reopen")
	}
	if !tb2.Schema.Equal(tb.Schema) {
		t.Fatalf("schema lost: %v", tb2.Schema)
	}
	n, err := countTuples(tb2)
	if err != nil || n != 200 {
		t.Fatalf("count = %d, %v", n, err)
	}
	// Index must be rebuilt with correct contents.
	idx := c2.Index("facts_id")
	if idx == nil {
		t.Fatal("index lost across reopen")
	}
	rids := idx.Tree.Lookup(rel.Tuple{rel.NewInt(42)}.Encode(nil))
	if len(rids) != 1 {
		t.Fatalf("rebuilt index lookup = %v", rids)
	}
	tu, err := getTuple(tb2, rids[0])
	if err != nil || tu[1].Str != "n42" {
		t.Fatalf("lookup row = %v, %v", tu, err)
	}
}

// TestReopenedInsertFetchesTail: the first insert into a relation
// reopened from its file looks for room at its tail page, so it fetches
// at most 2 pages, at 10 pages as at 150 (a directory that spills).
func TestReopenedInsertFetchesTail(t *testing.T) {
	schema := rel.MustSchema(rel.Column{Name: "id", Type: rel.TypeInt}, rel.Column{Name: "pad", Type: rel.TypeString})
	row := func(i int) rel.Tuple {
		return rel.Tuple{rel.NewInt(int64(i)), rel.NewString(strings.Repeat("p", 200))}
	}
	for _, pages := range []int{10, 150} {
		path := filepath.Join(t.TempDir(), "tail.db")
		pager, err := storage.OpenPager(path, 16)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Open(pager)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := c.CreateTable("facts", schema, false)
		if err != nil {
			t.Fatal(err)
		}
		// Stop at the first row of the last page, which leaves it room.
		i := 0
		for ; tb.Heap.Len() < pages; i++ {
			if _, err := tb.Insert(row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := pager.Close(); err != nil {
			t.Fatal(err)
		}
		if pager, err = storage.OpenPager(path, 16); err != nil {
			t.Fatal(err)
		}
		if c, err = Open(pager); err != nil {
			t.Fatal(err)
		}
		tb = c.Table("facts")
		before := pager.Stats()
		if _, err := tb.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
		after := pager.Stats()
		if fetches := after.Hits + after.Misses - before.Hits - before.Misses; fetches > 2 || tb.Heap.Len() != pages {
			t.Errorf("%d pages: one insert after a reopen fetched %d pages and left %d, want at most 2 and %d", pages, fetches, tb.Heap.Len(), pages)
		}
		if err := pager.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIndexOnPrefixMatch(t *testing.T) {
	c := memCatalog(t)
	tb, _ := c.CreateTable("e", edgeSchema(), false)
	c.CreateIndex("e_both", "e", []string{"src", "dst"}, false)
	if tb.IndexOn([]int{0}) == nil {
		t.Fatal("prefix [src] should match index (src,dst)")
	}
	if tb.IndexOn([]int{0, 1}) == nil {
		t.Fatal("exact [src,dst] should match")
	}
	if tb.IndexOn([]int{1}) != nil {
		t.Fatal("[dst] must not match index (src,dst)")
	}
}

func TestTablesSorted(t *testing.T) {
	c := memCatalog(t)
	c.CreateTable("zeta", edgeSchema(), false)
	c.CreateTable("alpha", edgeSchema(), false)
	names := c.Tables()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("Tables() = %v", names)
	}
}

func TestDropTableDropsIndexes(t *testing.T) {
	c := memCatalog(t)
	c.CreateTable("e", edgeSchema(), false)
	c.CreateIndex("e_src", "e", []string{"src"}, false)
	if err := c.DropTable("e"); err != nil {
		t.Fatal(err)
	}
	if c.Index("e_src") != nil {
		t.Fatal("index survived table drop")
	}
}

// TestIndexBytesPerEntry holds the parent index of the point_bigedb
// benchmark's forest — 24 heap-numbered binary trees of depth 12 over
// genealogy-length names, about 49 000 distinct parents of two children
// each — to at most 100 bytes of measured heap per distinct key, and
// TreeStats.Bytes to within 10 % of what was measured.
func TestIndexBytesPerEntry(t *testing.T) {
	c := memCatalog(t)
	tb, err := c.CreateTable("parent", edgeSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	const trees, depth = 24, 12
	for k := 0; k < trees; k++ {
		prefix := fmt.Sprintf("genealogy_family%02d_person_", k)
		for i := 2; i < 1<<depth; i++ {
			edge := rel.Tuple{rel.NewString(fmt.Sprintf("%s%d", prefix, i/2)), rel.NewString(fmt.Sprintf("%s%d", prefix, i))}
			if _, err := tb.Insert(edge); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := liveHeap()
	idx, err := c.CreateIndex("parent_src", "parent", []string{"src"}, false)
	if err != nil {
		t.Fatal(err)
	}
	measured := liveHeap() - before
	runtime.KeepAlive(c) // its pages are not the index's
	st := idx.Stats()
	if want := int64(trees * (1<<(depth-1) - 1)); st.Keys != want {
		t.Fatalf("index holds %d keys, want %d", st.Keys, want)
	}
	perKey := float64(measured) / float64(st.Keys)
	t.Logf("%d keys, %d entries: %d bytes measured (%.1f per key), %d accounted", st.Keys, st.Entries, measured, perKey, st.Bytes)
	if perKey > 100 {
		t.Errorf("index costs %.1f bytes of heap per distinct key, want at most 100", perKey)
	}
	if ratio := float64(st.Bytes) / float64(measured); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("TreeStats.Bytes = %d, %.2f× the %d bytes measured; want within 10 %%", st.Bytes, ratio, measured)
	}
	if err := idx.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCensus: an empty heap holds no page, a temp table's pages are not
// the file's, a stored table's are, a dropped one's go to the free list,
// and a page no owner names is unreached. A page two owners name is an
// error.
func TestCensus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "census.db")
	p, err := storage.OpenPager(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	census := func(want Census) {
		t.Helper()
		got, err := c.Census()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("census %+v, want %+v", got, want)
		}
	}
	census(Census{Pages: 1, Super: 1})
	fill := func(tb *Table) {
		t.Helper()
		for i := 0; i < 600; i++ { // three pages of rows and more
			if _, err := tb.Insert(rel.Tuple{rel.NewString(fmt.Sprintf("parent%d", i)), rel.NewString(fmt.Sprintf("child%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tmp, err := c.CreateTable("tmp", edgeSchema(), true)
	if err != nil {
		t.Fatal(err)
	}
	fill(tmp)
	census(Census{Pages: 1, Super: 1})
	if n := p.TempPages(); n < 3 {
		t.Fatalf("a temp table of three pages of rows holds %d temp pages", n)
	}
	stored, err := c.CreateTable("stored", edgeSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	fill(stored)
	grown, err := c.Census()
	if err != nil {
		t.Fatal(err)
	}
	if grown.Tables < 3 || grown.Pages != grown.Owned() || grown.Unreached != 0 {
		t.Fatalf("a stored table of three pages of rows: %+v", grown)
	}
	if err := c.DropTable("tmp"); err != nil {
		t.Fatal(err)
	}
	if got, want := p.TempFreePages(), p.TempPages(); got != want {
		t.Fatalf("no temp table lives, yet %d of %d temp pages are free", got, want)
	}
	if err := c.DropTable("stored"); err != nil {
		t.Fatal(err)
	}
	census(Census{Pages: grown.Pages, Super: 1, Catalog: 1, Free: grown.Tables})

	// A table whose page is also on the free list: two owners.
	twice, err := c.CreateTable("twice", edgeSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twice.Insert(rel.Tuple{rel.NewString("a"), rel.NewString("b")}); err != nil {
		t.Fatal(err)
	}
	if err := twice.Heap.EachPage(func(id storage.PageID) error { return p.Free([]storage.PageID{id}) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Census(); err == nil {
		t.Fatal("a page of a table and on the free list passed the census")
	}
	// A page nothing names any more is unreached.
	c.mu.Lock()
	delete(c.tables, "twice")
	c.mu.Unlock()
	pg, err := p.AllocateReusable()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg)
	cs, err := c.Census()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Unreached != 1 {
		t.Fatalf("a page taken off the free list and owned by nothing: %+v", cs)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordBytesMaintained: random inserts, raw inserts, deletes,
// truncates, shadow clones and reopens keep a table's maintained record
// bytes equal to the length of its live records together, and its row
// count equal to their number.
func TestRecordBytesMaintained(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bytes.db")
	var pager *storage.Pager
	var c *Catalog
	open := func() {
		t.Helper()
		var err error
		if pager, err = storage.OpenPager(path, 16); err != nil {
			t.Fatal(err)
		}
		if c, err = Open(pager); err != nil {
			t.Fatal(err)
		}
	}
	open()
	defer func() { pager.Close() }()
	schema := rel.MustSchema(rel.Column{Name: "id", Type: rel.TypeInt}, rel.Column{Name: "name", Type: rel.TypeString})
	if _, err := c.CreateTable("facts", schema, false); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(49))
	tuple := func() rel.Tuple {
		// Names of 0 to 299 bytes: a length of 128 or more takes two
		// bytes.
		return rel.Tuple{rel.NewInt(r.Int63()), rel.NewString(strings.Repeat("n", r.Intn(300)))}
	}
	type rec struct {
		rid storage.RID
		tu  rel.Tuple
	}
	var live []rec
	for step := 0; step < 600; step++ {
		tb := c.Table("facts")
		op := "insert"
		switch k := r.Intn(40); {
		case k < 20:
			if _, err := tb.Insert(tuple()); err != nil {
				t.Fatal(err)
			}
		case k < 26:
			op = "raw insert"
			if err := tb.InsertRecord(tuple().Encode(nil)); err != nil {
				t.Fatal(err)
			}
		case k < 36:
			op = "delete"
			if len(live) > 0 {
				d := live[r.Intn(len(live))]
				if err := tb.DeleteRID(d.rid, d.tu.Encode(nil)); err != nil {
					t.Fatal(err)
				}
			}
		case k < 37:
			op = "truncate"
			if err := tb.Truncate(); err != nil {
				t.Fatal(err)
			}
		case k < 39:
			op = "clone"
			old := c.Freeze(1)["facts"]
			nt, err := c.Writable("facts")
			if err != nil {
				t.Fatal(err)
			}
			if err := old.Heap.Release(nt.Heap); err != nil {
				t.Fatal(err)
			}
		default:
			op = "reopen"
			if err := pager.Close(); err != nil {
				t.Fatal(err)
			}
			open()
		}

		tb = c.Table("facts")
		rows, bytes := 0, 0
		if err := tb.Heap.Scan(func(_ storage.RID, rec []byte) error {
			rows, bytes = rows+1, bytes+len(rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if tb.Rows() != rows || tb.bytes != bytes {
			t.Fatalf("step %d, after a %s: %d rows of %d bytes maintained, %d of %d stored", step, op, tb.Rows(), tb.bytes, rows, bytes)
		}
		live = live[:0]
		if err := scanTuples(tb, func(rid storage.RID, tu rel.Tuple) error {
			live = append(live, rec{rid, tu.Clone()})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

package snapshot

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/core"
	"dkbms/internal/db"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// contents returns a table version's rows, rendered and sorted.
func contents(t *testing.T, tb *catalog.Table) []string {
	t.Helper()
	var rows []string
	if err := scanTuples(tb, func(_ storage.RID, tu rel.Tuple) error {
		rows = append(rows, tu.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(rows)
	return rows
}

// checkCensus requires the catalog's census to partition the file: no
// page reached twice (the free list included), none unreached.
func checkCensus(t *testing.T, c *catalog.Catalog) catalog.Census {
	t.Helper()
	cs, err := c.Census()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Unreached != 0 || cs.Pages != cs.Owned()+cs.Free {
		t.Fatalf("the census does not partition the file: %+v", cs)
	}
	return cs
}

// TestOldSnapshotOutlivesCommits holds the first snapshot across 50
// commits to a table of seven pages, commit k deleting a row of the page
// at position k mod 6, so six pages the old snapshot reads are copied
// and their copies copied again; snapshots pinned in between are
// released in a shuffled order. After every commit each pinned snapshot still reads
// the rows it was published with: no version freed a page an older one
// still reads, which a reader would see reused. Once every pin is
// released the census partitions the file.
func TestOldSnapshotOutlivesCommits(t *testing.T) {
	p, err := storage.OpenPager(filepath.Join(t.TempDir(), "old.db"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := catalog.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	schema := rel.MustSchema(rel.Column{Name: "id", Type: rel.TypeInt}, rel.Column{Name: "pad", Type: rel.TypeString})
	tb, err := c.CreateTable("edb_a", schema, false)
	if err != nil {
		t.Fatal(err)
	}
	row := func(id int) rel.Tuple {
		return rel.Tuple{rel.NewInt(int64(id)), rel.NewString(fmt.Sprintf("row %d %s", id, strings.Repeat("x", 40)))}
	}
	const pages = 6 // full ones, and a tail page the commits leave alone
	for i := 0; tb.Heap.Len() <= pages; i++ {
		if _, err := tb.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStore()
	st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})

	type pin struct {
		s    *Snapshot
		want []string
	}
	acquire := func() pin {
		s := st.Acquire()
		v := s.Table("edb_a")
		return pin{s, contents(t, v)}
	}
	old := acquire()
	var held []pin
	r := rand.New(rand.NewSource(54))
	for k := 1; k <= 50; k++ {
		nt, err := c.Writable("edb_a")
		if err != nil {
			t.Fatal(err)
		}
		var victim storage.RID
		var victimRow rel.Tuple
		found := false
		if err := scanTuples(nt, func(rid storage.RID, tu rel.Tuple) error {
			if !found && int(rid.Page) == k%pages {
				victim, victimRow, found = rid, tu.Clone(), true
			}
			return nil
		}); err != nil || !found {
			t.Fatalf("commit %d: no row on page %d: %v", k, k%pages, err)
		}
		if err := nt.DeleteRID(victim, victimRow.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if nt.Heap.Len() != pages+1 || nt.Heap.Written() != 1 {
			t.Fatalf("commit %d: %d pages, %d written; want %d and 1", k, nt.Heap.Len(), nt.Heap.Written(), pages+1)
		}
		st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})
		held = append(held, acquire())
		for len(held) > 3 {
			i := r.Intn(len(held))
			held[i].s.Release()
			held = slices.Delete(held, i, i+1)
		}
		for _, h := range append(held, old) {
			v := h.s.Table("edb_a")
			if got := contents(t, v); !slices.Equal(got, h.want) {
				t.Fatalf("commit %d: the snapshot of generation %d reads %d rows unlike the %d it was published with", k, h.s.Gen, len(got), len(h.want))
			}
		}
	}
	for _, h := range append(held, old) {
		h.s.Release()
	}
	st.Shutdown()
	if s := st.Stats(); s.ReclaimBacklog != 0 || s.ReclaimErrors != 0 || s.ReclaimedTables != 50 {
		t.Fatalf("after the drain: %+v; want no backlog and 50 versions reclaimed", s)
	}
	cs := checkCensus(t, c)
	if cs.Tables != pages+1 {
		t.Fatalf("the table holds %d pages, want %d: %+v", cs.Tables, pages+1, cs)
	}
}

// TestLongReaderHoldsItsOwnPages holds the first snapshot while 40
// commits each delete a row of one page of a seven-page table, so each
// commit copies the copy the commit before it made. No other reader
// pins a snapshot, so each copy is free once the commit after it
// replaces it: the file grows by the page the old snapshot reads and the
// current copy, not by a page a commit. The old snapshot reads its rows
// throughout; after its release every version is reclaimed and the
// census partitions the file.
func TestLongReaderHoldsItsOwnPages(t *testing.T) {
	p, err := storage.OpenPager(filepath.Join(t.TempDir(), "long.db"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := catalog.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	schema := rel.MustSchema(rel.Column{Name: "id", Type: rel.TypeInt}, rel.Column{Name: "pad", Type: rel.TypeString})
	tb, err := c.CreateTable("edb_a", schema, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; tb.Heap.Len() < 7; i++ {
		if _, err := tb.Insert(rel.Tuple{rel.NewInt(int64(i)), rel.NewString(strings.Repeat("x", 60))}); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStore()
	st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})
	old := st.Acquire()
	v := old.Table("edb_a")
	want := contents(t, v)
	start := p.PageCount()
	for k := 1; k <= 40; k++ {
		nt, err := c.Writable("edb_a")
		if err != nil {
			t.Fatal(err)
		}
		var victim storage.RID
		var victimRow rel.Tuple
		if err := scanTuples(nt, func(rid storage.RID, tu rel.Tuple) error {
			if victimRow == nil && rid.Page == 2 {
				victim, victimRow = rid, tu.Clone()
			}
			return nil
		}); err != nil || victimRow == nil {
			t.Fatalf("commit %d: no row on page 2: %v", k, err)
		}
		if err := nt.DeleteRID(victim, victimRow.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})
		if got := p.PageCount() - start; got > 2 {
			t.Fatalf("commit %d: the file grew by %d pages while one snapshot was held, want at most 2", k, got)
		}
		if got := contents(t, v); !slices.Equal(got, want) {
			t.Fatalf("commit %d: the held snapshot reads %d rows unlike the %d it was published with", k, len(got), len(want))
		}
	}
	old.Release()
	st.Shutdown()
	if s := st.Stats(); s.ReclaimBacklog != 0 || s.ReclaimErrors != 0 || s.ReclaimedTables != 40 {
		t.Fatalf("after the drain: %+v; want no backlog and 40 versions reclaimed", s)
	}
	if cs := checkCensus(t, c); cs.Tables != 7 {
		t.Fatalf("the table holds %d pages, want 7: %+v", cs.Tables, cs)
	}
}

// TestDropTableLeavesPublishedPages: SQL DROP TABLE of a published table
// on the live database leaves its pages to the store. A snapshot pinned
// before it still scans the table; after the release the pages are on
// the free list once each, and the census partitions the file.
func TestDropTableLeavesPublishedPages(t *testing.T) {
	d, err := db.Open(filepath.Join(t.TempDir(), "drop.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Exec("CREATE TABLE edb_a (c0 INT, c1 CHAR)"); err != nil {
		t.Fatal(err)
	}
	tb := d.Catalog().Table("edb_a")
	for i := 0; tb.Heap.Len() < 3; i++ {
		if _, err := tb.Insert(rel.Tuple{rel.NewInt(int64(i)), rel.NewString(strings.Repeat("y", 50))}); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStore()
	st.Publish(d.Catalog(), 1, core.NewWorkspace(), catalog.Copies{})
	s := st.Acquire()
	v := s.Table("edb_a")
	want := contents(t, v)
	before := checkCensus(t, d.Catalog())

	if err := d.Exec("DROP TABLE edb_a"); err != nil {
		t.Fatal(err)
	}
	st.Publish(d.Catalog(), 1, core.NewWorkspace(), catalog.Copies{})
	if cs, err := d.Catalog().Census(); err != nil || cs.Free != before.Free {
		t.Fatalf("the drop freed pages a pinned snapshot reads: %+v, was %+v, %v", cs, before, err)
	}
	if got := contents(t, v); !slices.Equal(got, want) {
		t.Fatalf("the pinned snapshot reads %d rows after the drop, was %d", len(got), len(want))
	}
	s.Release()
	cs := checkCensus(t, d.Catalog())
	if cs.Free != before.Free+before.Tables || cs.Tables != 0 {
		t.Fatalf("after the release: %+v; want the table's %d pages free: %+v before", cs, before.Tables, before)
	}
}

// TestDropLeavesPinnedIndexes: DROP INDEX and DROP TABLE of a published
// table leave the version a pinned snapshot reads as it was — its
// Indexes the same indexes, in order, each still answering every key —
// while a goroutine reads that list throughout. DROP INDEX writes the
// table's next version, a copy; DROP TABLE leaves the version to the
// snapshots.
func TestDropLeavesPinnedIndexes(t *testing.T) {
	d, err := db.Open(filepath.Join(t.TempDir(), "dropidx.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, stmt := range []string{
		"CREATE TABLE edb_a (c0 INT, c1 CHAR)",
		"CREATE INDEX edb_a_c0 ON edb_a (c0)",
		"CREATE INDEX edb_a_c1 ON edb_a (c1)",
		"CREATE INDEX edb_a_both ON edb_a (c1, c0)",
	} {
		if err := d.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := d.Catalog().Table("edb_a").Insert(rel.Tuple{rel.NewInt(int64(i)), rel.NewString(fmt.Sprintf("v%d", i%7))}); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStore()
	st.Publish(d.Catalog(), 1, core.NewWorkspace(), catalog.Copies{})
	s := st.Acquire()
	defer s.Release()
	v := s.Table("edb_a")
	// state renders a version's index list and what each index holds:
	// its postings, key by key, in key order.
	state := func(tb *catalog.Table) string {
		var b strings.Builder
		for _, idx := range tb.Indexes {
			h := fnv.New64a()
			idx.Tree.Postings(nil, func(rids []storage.RID) error {
				fmt.Fprintf(h, "%v ", rids)
				return nil
			})
			fmt.Fprintf(&b, "%s%v: %d rows under %d keys, digest %x\n", idx.Name, idx.Cols, idx.Tree.Len(), idx.Tree.DistinctKeys(), h.Sum64())
		}
		return b.String()
	}
	want, wantList := state(v), slices.Clone(v.Indexes)

	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		reads := 0
		for {
			select {
			case <-stop:
				done <- reads
				return
			default:
			}
			for _, idx := range v.Indexes {
				if idx.Name == "" {
					panic("an index with no name")
				}
			}
			reads++
		}
	}()

	if err := d.Exec("DROP INDEX edb_a_c1"); err != nil {
		t.Fatal(err)
	}
	st.Publish(d.Catalog(), 2, core.NewWorkspace(), catalog.Copies{})
	live := d.Catalog().Table("edb_a")
	if live == v || len(live.Indexes) != 2 || d.Catalog().Index("edb_a_c1") != nil {
		t.Errorf("after DROP INDEX the catalog names version %p with %d indexes (the pinned one is %p), index edb_a_c1 %v", live, len(live.Indexes), v, d.Catalog().Index("edb_a_c1"))
	}
	s2 := st.Acquire()
	defer s2.Release()
	v2 := s2.Table("edb_a")
	want2 := state(v2)

	if err := d.Exec("DROP TABLE edb_a"); err != nil {
		t.Fatal(err)
	}
	st.Publish(d.Catalog(), 3, core.NewWorkspace(), catalog.Copies{})
	close(stop)
	if <-done == 0 {
		t.Log("the reader goroutine never ran a pass")
	}
	if !slices.Equal(v.Indexes, wantList) {
		t.Errorf("the pinned version's Indexes changed: %v, was %v", v.Indexes, wantList)
	}
	if got := state(v); got != want {
		t.Errorf("the pinned version's indexes read\n%s\nwas\n%s", got, want)
	}
	if got := state(v2); got != want2 {
		t.Errorf("the version pinned after DROP INDEX reads\n%s\nwas\n%s", got, want2)
	}
}

// TestReclaimInCommitOrderAcrossTables holds the first snapshot while a
// second table is created, a third dropped and the first rewritten
// page by page, commit k deleting a row of the page at position k mod
// 6; the snapshots pinned in between are released in a shuffled order.
// After every commit each pinned snapshot reads exactly the tables and
// rows it was published with. Once every pin is released, each
// superseded version is reclaimed and the census partitions the file.
func TestReclaimInCommitOrderAcrossTables(t *testing.T) {
	p, err := storage.OpenPager(filepath.Join(t.TempDir(), "tables.db"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := catalog.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	schema := rel.MustSchema(rel.Column{Name: "id", Type: rel.TypeInt}, rel.Column{Name: "pad", Type: rel.TypeString})
	row := func(id int) rel.Tuple {
		return rel.Tuple{rel.NewInt(int64(id)), rel.NewString(fmt.Sprintf("row %d %s", id, strings.Repeat("x", 40)))}
	}
	fill := func(name string, pages int) {
		tb, err := c.CreateTable(name, schema, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; tb.Heap.Len() < pages; i++ {
			if _, err := tb.Insert(row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const pages = 6 // edb_a's full pages, and a tail page the commits leave alone
	fill("edb_a", pages+1)
	fill("edb_c", 2)
	st := NewStore()
	st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})

	// A pin, and every table its snapshot was published with.
	type pin struct {
		s    *Snapshot
		want map[string][]string
	}
	acquire := func() pin {
		s := st.Acquire()
		want := make(map[string][]string)
		for name, v := range s.Tables() {
			want[name] = contents(t, v)
		}
		return pin{s, want}
	}
	old := acquire()
	var held []pin
	superseded := 0
	r := rand.New(rand.NewSource(55))
	for k := 2; k <= 40; k++ {
		switch {
		case k == 2:
			fill("edb_b", 2)
		case k == 3:
			if err := c.DropTable("edb_c"); err != nil {
				t.Fatal(err)
			}
			superseded++
		default:
			nt, err := c.Writable("edb_a")
			if err != nil {
				t.Fatal(err)
			}
			var victim storage.RID
			var victimRow rel.Tuple
			found := false
			if err := scanTuples(nt, func(rid storage.RID, tu rel.Tuple) error {
				if !found && int(rid.Page) == k%pages {
					victim, victimRow, found = rid, tu.Clone(), true
				}
				return nil
			}); err != nil || !found {
				t.Fatalf("commit %d: no row on page %d: %v", k, k%pages, err)
			}
			if err := nt.DeleteRID(victim, victimRow.Encode(nil)); err != nil {
				t.Fatal(err)
			}
			superseded++
			if k%4 == 0 {
				nb, err := c.Writable("edb_b")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := nb.Insert(row(1000 + k)); err != nil {
					t.Fatal(err)
				}
				superseded++
			}
		}
		st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})
		held = append(held, acquire())
		for len(held) > 3 {
			i := r.Intn(len(held))
			held[i].s.Release()
			held = slices.Delete(held, i, i+1)
		}
		for _, h := range append(held, old) {
			if got := h.s.Tables(); len(got) != len(h.want) {
				t.Fatalf("commit %d: the snapshot of generation %d holds tables %v", k, h.s.Gen, got)
			}
			for name, want := range h.want {
				if got := contents(t, h.s.Table(name)); !slices.Equal(got, want) {
					t.Fatalf("commit %d: the snapshot of generation %d reads %d rows of %s unlike the %d it was published with", k, h.s.Gen, len(got), name, len(want))
				}
			}
		}
		if s := st.Stats(); s.OldestPinnedGen != 1 {
			t.Fatalf("commit %d: oldest pinned generation %d while generation 1 is held", k, s.OldestPinnedGen)
		}
	}
	if s := st.Stats(); s.ReclaimedTables != 0 {
		t.Fatalf("%d versions reclaimed while the first snapshot is held", s.ReclaimedTables)
	}
	for _, h := range append(held, old) {
		h.s.Release()
	}
	st.Shutdown()
	if s := st.Stats(); s.ReclaimBacklog != 0 || s.ReclaimErrors != 0 || s.RetiredSnapshots != 0 || s.ReclaimedTables != int64(superseded) {
		t.Fatalf("after the drain: %+v; want no backlog and %d versions reclaimed", s, superseded)
	}
	cs := checkCensus(t, c)
	if want := c.Table("edb_a").Heap.Len() + c.Table("edb_b").Heap.Len(); cs.Tables != want {
		t.Fatalf("the tables hold %d pages, want %d: %+v", cs.Tables, want, cs)
	}
}

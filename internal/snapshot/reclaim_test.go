package snapshot

import (
	"fmt"
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
	if err := tb.Scan(func(_ storage.RID, tu rel.Tuple) error {
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
	st := NewStore("edb_")
	st.Publish(c.Freeze(), 1, core.NewWorkspace(), catalog.Copies{})

	type pin struct {
		s    *Snapshot
		want []string
	}
	acquire := func() pin {
		s := st.Acquire()
		v, _ := s.ResolveTable("edb_a")
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
		if err := nt.Scan(func(rid storage.RID, tu rel.Tuple) error {
			if !found && int(rid.Page) == k%pages {
				victim, victimRow, found = rid, tu.Clone(), true
			}
			return nil
		}); err != nil || !found {
			t.Fatalf("commit %d: no row on page %d: %v", k, k%pages, err)
		}
		if err := nt.DeleteRID(victim, victimRow); err != nil {
			t.Fatal(err)
		}
		if nt.Heap.Len() != pages+1 || nt.Heap.Written() != 1 {
			t.Fatalf("commit %d: %d pages, %d written; want %d and 1", k, nt.Heap.Len(), nt.Heap.Written(), pages+1)
		}
		st.Publish(c.Freeze(), 1, core.NewWorkspace(), catalog.Copies{})
		held = append(held, acquire())
		for len(held) > 3 {
			i := r.Intn(len(held))
			held[i].s.Release()
			held = slices.Delete(held, i, i+1)
		}
		for _, h := range append(held, old) {
			v, _ := h.s.ResolveTable("edb_a")
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
	st := NewStore("edb_")
	st.Publish(d.Catalog().Freeze(), 1, core.NewWorkspace(), catalog.Copies{})
	s := st.Acquire()
	v, _ := s.ResolveTable("edb_a")
	want := contents(t, v)
	before := checkCensus(t, d.Catalog())

	if err := d.Exec("DROP TABLE edb_a"); err != nil {
		t.Fatal(err)
	}
	st.Publish(d.Catalog().Freeze(), 1, core.NewWorkspace(), catalog.Copies{})
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

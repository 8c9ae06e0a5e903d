package snapshot

import (
	"sync"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/core"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// testCatalog opens an in-memory catalog with one two-column fact
// relation per name, each holding a single distinguishing row.
func testCatalog(t *testing.T, names ...string) (*storage.Pager, *catalog.Catalog) {
	t.Helper()
	p := storage.NewMemPager(0)
	c, err := catalog.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		schema, err := rel.NewSchema(rel.Column{Name: "c0", Type: rel.TypeInt}, rel.Column{Name: "c1", Type: rel.TypeInt})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := c.CreateTable(name, schema, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Insert(rel.Tuple{rel.NewInt(int64(i)), rel.NewInt(int64(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	return p, c
}

// scanTuples calls fn with every row of tb, decoded, and the RID it is
// stored at.
func scanTuples(tb *catalog.Table, fn func(rid storage.RID, tu rel.Tuple) error) error {
	return tb.Heap.Scan(func(rid storage.RID, rec []byte) error {
		tu, err := rel.DecodeTuple(rec, tb.Schema)
		if err != nil {
			return err
		}
		return fn(rid, tu)
	})
}

// rowCount scans a frozen table version.
func rowCount(t *testing.T, tb *catalog.Table) int {
	t.Helper()
	n := 0
	if err := scanTuples(tb, func(storage.RID, rel.Tuple) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSnapshotPinKeepsSupersededVersion: a pinned snapshot keeps
// reading the table version it was published with after a commit
// replaces it, and the superseded version's pages are reclaimed only
// when the pin drains.
func TestSnapshotPinKeepsSupersededVersion(t *testing.T) {
	p, c := testCatalog(t, "edb_a", "edb_b")
	st := NewStore()
	st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})

	s1 := st.Acquire()
	oldA := s1.Table("edb_a")
	if oldA == nil {
		t.Fatal("snapshot does not resolve edb_a")
	}

	// Writer: append a row to edb_a, which copies it, and publish.
	newA, err := c.Writable("edb_a")
	if err != nil {
		t.Fatal(err)
	}
	if newA == oldA {
		t.Fatal("shadow did not replace the physical table")
	}
	if _, err := newA.Insert(rel.Tuple{rel.NewInt(7), rel.NewInt(8)}); err != nil {
		t.Fatal(err)
	}
	st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})

	// The pinned snapshot still reads the one-row original.
	if got := rowCount(t, oldA); got != 1 {
		t.Fatalf("pinned version has %d rows, want 1", got)
	}
	stats := st.Stats()
	if stats.ReclaimBacklog != 1 || stats.ReclaimedTables != 0 {
		t.Fatalf("backlog %d reclaimed %d before drain; want 1, 0", stats.ReclaimBacklog, stats.ReclaimedTables)
	}
	if stats.OldestPinnedGen != 1 || stats.Gen != 2 {
		t.Fatalf("oldest pinned gen %d at published gen %d; want 1 at 2", stats.OldestPinnedGen, stats.Gen)
	}

	// A fresh reader sees the two-row successor; the shared edb_b
	// version carries the same physical table across generations.
	s2 := st.Acquire()
	curA := s2.Table("edb_a")
	if got := rowCount(t, curA); got != 2 {
		t.Fatalf("current version has %d rows, want 2", got)
	}
	if s1.Table("edb_b") != c.Table("edb_b") {
		t.Fatal("unchanged table was not shared across snapshots")
	}
	if s1.TableGen("edb_a") == s2.TableGen("edb_a") {
		t.Fatal("replaced table kept its version generation")
	}
	if s1.TableGen("edb_b") != s2.TableGen("edb_b") {
		t.Fatal("unchanged table changed its version generation")
	}

	// Draining the old pin reclaims the superseded version's pages.
	free0, err := p.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	s1.Release()
	stats = st.Stats()
	if stats.ReclaimBacklog != 0 || stats.ReclaimedTables != 1 || stats.ReclaimErrors != 0 {
		t.Fatalf("after drain: %+v, want backlog 0, reclaimed 1", stats)
	}
	free1, err := p.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if free1 <= free0 {
		t.Fatalf("reclaim returned no pages to the free list (%d -> %d)", free0, free1)
	}
	s2.Release()
	if st.ActiveReaders() != 0 {
		t.Fatalf("readers leaked: %d", st.ActiveReaders())
	}
}

// TestSnapshotAuthority: a snapshot's table map holds the tables it
// published and no table created after it, whatever the name. Which
// names a view of it resolves elsewhere is the view rule's, in package
// db (TestViewRule).
func TestSnapshotAuthority(t *testing.T) {
	_, c := testCatalog(t, "edb_a")
	st := NewStore()
	st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})
	s := st.Acquire()
	defer s.Release()
	if _, err := c.CreateTable("edb_created_later", rel.MustSchema(rel.Column{Name: "a", Type: rel.TypeInt}), false); err != nil {
		t.Fatal(err)
	}

	if s.Table("edb_a") == nil || s.Tables()["edb_a"] != s.Table("edb_a") {
		t.Fatal("published table missing from the map")
	}
	if s.Table("edb_created_later") != nil || len(s.Tables()) != 1 {
		t.Fatalf("a table created after the snapshot is in its map: %v", s.Tables())
	}
	if g := s.TableGen("edb_created_later"); g != 0 {
		t.Fatalf("absent table generation %d, want 0", g)
	}
}

// TestSnapshotChurnNoLeak: continuous commits under concurrent
// acquire/release traffic reclaim every superseded version once
// readers drain — live versions settle to the published set and the
// retired list empties.
func TestSnapshotChurnNoLeak(t *testing.T) {
	_, c := testCatalog(t, "edb_a", "edb_b")
	st := NewStore()
	st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := st.Acquire()
				if tb := s.Table("edb_a"); tb == nil {
					t.Error("lost edb_a")
					s.Release()
					return
				} else if rowCount(t, tb) < 1 {
					t.Error("pinned version lost its rows")
					s.Release()
					return
				}
				s.Release()
			}
		}()
	}

	for i := 0; i < 200; i++ {
		name := "edb_a"
		if i%2 == 1 {
			name = "edb_b"
		}
		tb, err := c.Writable(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Insert(rel.Tuple{rel.NewInt(int64(i)), rel.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
		st.Publish(c, 1, core.NewWorkspace(), catalog.Copies{})
	}
	close(stop)
	wg.Wait()
	st.Shutdown()

	stats := st.Stats()
	if stats.ActiveReaders != 0 || stats.RetiredSnapshots != 0 {
		t.Fatalf("after shutdown: %d readers, %d retired", stats.ActiveReaders, stats.RetiredSnapshots)
	}
	if stats.ReclaimBacklog != 0 {
		t.Fatalf("reclaim backlog %d after drain", stats.ReclaimBacklog)
	}
	want := int64(len(st.Current().Tables()))
	if stats.LiveVersions != want {
		t.Fatalf("%d live versions, want %d (one per published table): superseded versions leaked", stats.LiveVersions, want)
	}
	if stats.ReclaimedTables != 200 {
		t.Fatalf("reclaimed %d versions across 200 commits", stats.ReclaimedTables)
	}
	if stats.Commits != 201 || stats.CopiedTables != 200 {
		t.Fatalf("commits %d copied %d, want 201/200", stats.Commits, stats.CopiedTables)
	}
}

// TestSnapshotGenerationsMonotonic: Publish numbers snapshots densely
// and stamps fresh versions with the publishing generation.
func TestSnapshotGenerationsMonotonic(t *testing.T) {
	_, c := testCatalog(t, "edb_a")
	st := NewStore()
	for i := 1; i <= 3; i++ {
		s := st.Publish(c, uint64(i), core.NewWorkspace(), catalog.Copies{})
		if s.Gen != uint64(i) {
			t.Fatalf("publish %d got gen %d", i, s.Gen)
		}
		if s.RuleGen != uint64(i) {
			t.Fatalf("rule generation not carried: %d", s.RuleGen)
		}
	}
	s := st.Acquire()
	defer s.Release()
	// edb_a's physical table never changed, so its version still bears
	// the generation that first published it.
	if g := s.TableGen("edb_a"); g != 1 {
		t.Fatalf("unchanged table at gen %d, want 1", g)
	}
	if tables := s.Tables(); len(tables) != 1 || tables["edb_a"] == nil {
		t.Fatalf("tables %v", tables)
	}
}

package db

import (
	"errors"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/rel"
)

// TestViewRule pins the view rule: a view resolves a stored table in its
// snapshot's map, where absent means absent, and a temp table in the
// live catalog. A stored table created after the snapshot stays
// invisible whatever its name — the knowledge manager's edb_ prefix or
// none — a temp table created after it is seen, and a write through the
// view to a version of its map is refused with catalog.ErrFrozen.
func TestViewRule(t *testing.T) {
	d := family(t)
	mustExec(t, d, "CREATE TABLE edb_a (x INTEGER)", "INSERT INTO edb_a VALUES (1)")
	view := d.View(d.Catalog().Freeze(1), nil)

	mustExec(t, d, "CREATE TABLE edb_later (x INTEGER)", "CREATE TABLE later (x INTEGER)")
	for _, name := range []string{"edb_later", "later"} {
		if view.Table(name) != nil || view.TableBytes([]byte(name)) != nil || view.HasTable(name) {
			t.Errorf("a view sees %s, a stored table created after its snapshot", name)
		}
		if _, err := view.Query("SELECT * FROM " + name); err == nil {
			t.Errorf("a view queries %s, a stored table created after its snapshot", name)
		}
		if d.Table(name) == nil {
			t.Errorf("the database does not see %s", name)
		}
	}

	if err := d.CreateTempTable("dkb1_tmp", parentSchema); err != nil {
		t.Fatal(err)
	}
	tmp := d.Table("dkb1_tmp")
	if view.Table("dkb1_tmp") != tmp || view.TableBytes([]byte("dkb1_tmp")) != tmp {
		t.Fatal("a view does not see a temp table created after its snapshot")
	}
	mustExec(t, view, "INSERT INTO dkb1_tmp SELECT * FROM parent")
	if n := d.TableRows("dkb1_tmp"); n != 5 {
		t.Errorf("a view's INSERT into a temp table wrote %d rows, want 5", n)
	}

	for _, stmt := range []string{
		"INSERT INTO edb_a VALUES (2)",
		"INSERT INTO parent SELECT * FROM dkb1_tmp",
		"DELETE FROM parent WHERE par = 'john'",
		"DELETE FROM edb_a",
	} {
		if err := view.Exec(stmt); !errors.Is(err, catalog.ErrFrozen) {
			t.Errorf("%s through a view: %v, want catalog.ErrFrozen", stmt, err)
		}
	}
	if err := view.InsertTuples("edb_a", []rel.Tuple{{rel.NewInt(3)}}); !errors.Is(err, catalog.ErrFrozen) {
		t.Errorf("InsertTuples through a view: %v, want catalog.ErrFrozen", err)
	}
	if view.TableRows("parent") != 5 || view.TableRows("edb_a") != 1 || d.TableRows("parent") != 5 {
		t.Error("a refused write changed a table")
	}
}

package db

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dkbms/internal/plan"
	"dkbms/internal/plan/plantest"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// allocsUnder counts the objects allocated under a frame whose function
// name starts with prefix while run executes. Objects of up to 16 bytes
// are left out: the runtime packs the pointer-free ones of them several
// to a block and samples the block, so their count is not repeatable; a
// decoded block's value slab is larger.
func allocsUnder(prefix string, run func()) int64 {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	count := func() (n int64) {
		// The profile is as of the last collection but one.
		runtime.GC()
		runtime.GC()
		recs := make([]runtime.MemProfileRecord, 1024)
		for {
			got, ok := runtime.MemProfile(recs, true)
			if ok {
				recs = recs[:got]
				break
			}
			recs = make([]runtime.MemProfileRecord, 2*got)
		}
		for i := range recs {
			if recs[i].AllocBytes <= 16*recs[i].AllocObjects {
				continue
			}
			frames := runtime.CallersFrames(recs[i].Stack())
			for more := true; more; {
				var f runtime.Frame
				f, more = frames.Next()
				if strings.HasPrefix(f.Function, prefix) {
					n += recs[i].AllocObjects
					break
				}
			}
		}
		return n
	}
	before := count()
	run()
	return count() - before
}

// TestRuleInsertDecodesNothing pins the record path of the statement a
// semi-naive round runs per rule, INSERT INTO r SELECT <body> EXCEPT
// SELECT * FROM r, for a hash-join body and an index-join body over
// tables spread over several heap pages: scans pass heap records on,
// the join and the projection concatenate their columns, and the
// EXCEPT's set keys on the records, so an execution begins no
// rel.BlockDecoder block. Each table is run at n rows and at 4n; the
// statement is prepared, run once to derive r and once more to keep
// its tree's working memory, and then measured re-run on its kept tree
// (the round that reaches the fixpoint: it derives nothing new). Its
// allocations are the same at both sizes: nothing is allocated per page
// or per row.
func TestRuleInsertDecodesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const stmt = "INSERT INTO r SELECT p.s, q.d FROM p, q WHERE p.d = q.s EXCEPT SELECT * FROM r"
	for _, tc := range []struct {
		name, index, shape string
	}{
		{"hash join", "", "hash["},
		{"index join", "CREATE INDEX q_s ON q (s)", "probe q[q_s]"},
	} {
		run := func(n int) (allocs float64, decoded int64) {
			d := OpenMemory()
			mustExec(t, d,
				"CREATE TABLE p (s CHAR, d INTEGER)",
				"CREATE TABLE q (s INTEGER, d CHAR)",
				"CREATE TABLE r (s CHAR, d CHAR)")
			if tc.index != "" {
				mustExec(t, d, tc.index)
			}
			// p's rows each meet two of q's, which has eight rows a key
			// outside them: an index join reads a fraction of q. The
			// string columns give a decoded block character data of its
			// own.
			for i := 0; i < n; i++ {
				if _, err := d.Table("p").Insert(rel.Tuple{rel.NewString(fmt.Sprint("n", i)), rel.NewInt(int64(i))}); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 10; k++ {
					row := rel.Tuple{rel.NewInt(int64(i + k*n)), rel.NewString(fmt.Sprint("v", k))}
					if k < 2 {
						row[0] = rel.NewInt(int64(i))
					}
					if _, err := d.Table("q").Insert(row); err != nil {
						t.Fatal(err)
					}
				}
			}
			if pages := heapPages(t, d.Table("p")); pages < 2 {
				t.Fatalf("p lies on %d heap page, want several", pages)
			}
			st, err := sql.Parse(stmt)
			if err != nil {
				t.Fatal(err)
			}
			op, err := plan.BuildSelect(d, st.(sql.Insert).Query)
			if err != nil {
				t.Fatal(err)
			}
			if tree := plantest.Render(op); !strings.Contains(tree, tc.shape) {
				t.Fatalf("%s at %d rows: plan %s", tc.name, n, tree)
			}
			s := mustPrepare(t, d, stmt)
			exec := func() {
				if err := s.Exec(context.Background(), d, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			exec()
			exec()
			if got := d.TableRows("r"); got != 2*n {
				t.Fatalf("%s at %d rows: r holds %d rows, want %d", tc.name, n, got, 2*n)
			}
			decoded = allocsUnder("dkbms/internal/rel.(*BlockDecoder)", exec)
			return testing.AllocsPerRun(20, exec), decoded
		}
		small, decSmall := run(300)
		big, decBig := run(1200)
		if decSmall != 0 || decBig != 0 {
			t.Errorf("%s: %d objects allocated under a BlockDecoder at 300 rows, %d at 1200; want none", tc.name, decSmall, decBig)
		}
		if small != big {
			t.Errorf("%s: an execution allocates %.0f objects over 300 rows, %.0f over 1200; want the same", tc.name, small, big)
		}
	}
}

// TestDeleteDecodesNothing pins the DELETE path on records: a prepared
// DELETE ... WHERE over a relation of strings, whose victims an index
// scan finds and whose two indexes lose an entry a victim, collects the
// victims' records and deletes each from its record — its keys read in
// place — so it allocates nothing under a BlockDecoder, and keeps its
// victim buffers, so an execution allocates the same at 1 200 victims as
// at 300.
func TestDeleteDecodesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	run := func(n int) (allocs uint64, decoded int64) {
		d := OpenMemory()
		mustExec(t, d,
			"CREATE TABLE r (s CHAR, d CHAR)",
			"CREATE INDEX r_s ON r (s)",
			"CREATE INDEX r_d ON r (d)")
		tab := d.Table("r")
		// n victims under s = "v", loaded before each DELETE, and n
		// survivors beside them.
		fill := func(s string) {
			for i := 0; i < n; i++ {
				if _, err := tab.Insert(rel.Tuple{rel.NewString(s), rel.NewString(fmt.Sprint("row_", i))}); err != nil {
					t.Fatal(err)
				}
			}
		}
		fill("w")
		load := func() { fill("v") }
		st := mustPrepare(t, d, "DELETE FROM r WHERE s = ?1")
		del := func() {
			if err := st.Exec(context.Background(), d, nil, []rel.Value{rel.NewString("v")}); err != nil {
				t.Fatal(err)
			}
			if got := d.TableRows("r"); got != n {
				t.Fatalf("at %d victims: r holds %d rows after the DELETE, want %d", n, got, n)
			}
		}
		load()
		del()
		load()
		decoded = allocsUnder("dkbms/internal/rel.(*BlockDecoder)", del)
		var before, after runtime.MemStats
		for k := 0; k < 3; k++ {
			load()
			runtime.ReadMemStats(&before)
			del()
			runtime.ReadMemStats(&after)
		}
		return after.Mallocs - before.Mallocs, decoded
	}
	small, decSmall := run(300)
	big, decBig := run(1200)
	if decSmall != 0 || decBig != 0 {
		t.Errorf("%d objects allocated under a BlockDecoder at 300 victims, %d at 1200; want none", decSmall, decBig)
	}
	if small != big {
		t.Errorf("a DELETE allocates %d objects over 300 victims, %d over 1200; want the same", small, big)
	}
}

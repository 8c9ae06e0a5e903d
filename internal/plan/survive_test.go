package plan

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
	"dkbms/internal/storage"
)

// TestTuplesSurviveTheStatement: the rows a statement returns own their
// memory (exec.CollectOwned, as db returns every result), while the
// rows read inside its kept operator tree are written over by the
// tree's next execution. Every shape of the differential tests (SELECT
// * over joins, projections, DISTINCT, COUNT) is prepared and run
// through its kept tree, its returned rows are kept, a hundred and more
// further statements read, delete from and insert into the same tables
// — among them four more executions of the same tree — and only then
// are the kept rows compared with the reference.
func TestTuplesSurviveTheStatement(t *testing.T) {
	shapes := namedShapes()
	cases := 120
	if testing.Short() {
		cases = 30
	}
	for seed := int64(1); seed <= int64(cases); seed++ {
		shapes = append(shapes, namedShape{fmt.Sprintf("seed %d", seed), randomShape(rand.New(rand.NewSource(seed)))})
	}
	for _, sh := range shapes {
		c := sh.catalog(t)
		st, err := sql.Parse(sh.Query)
		if err != nil {
			t.Fatalf("%v\n%s", err, sh.shape)
		}
		sel := st.(*sql.Select)
		p, err := Prepare(c, sel, nil)
		if err != nil {
			t.Fatalf("prepare: %v\n%s", err, sh.shape)
		}
		run := func() []rel.Tuple {
			tr, _, err := p.Acquire(c, nil, nil)
			if err != nil {
				t.Fatalf("plan: %v\n%s", err, sh.shape)
			}
			defer p.Release(tr)
			rows, err := exec.CollectOwned(context.Background(), tr.Root)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, sh.shape)
			}
			return rows
		}
		kept := run()
		want := bruteForce(t, c, sel)

		for i := 0; i < 40; i++ {
			churn(t, c.Table(sh.Tables[i%len(sh.Tables)].Name), i)
			if i%10 == 0 {
				run()
			}
		}

		got := make([]string, len(kept))
		for i, tu := range kept {
			got[i] = tu.String()
		}
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: the %d rows kept from the statement no longer match the %d reference rows\n%s",
				sh.name, len(got), len(want), sh.shape)
		}
	}
}

// churn runs three statements' worth of traffic on tb: a scan, the
// deletion of the first two rows it found, and the insertion of two new
// ones (which land in the space the deleted ones gave up).
func churn(t *testing.T, tb *catalog.Table, round int) {
	t.Helper()
	type stored struct {
		rid storage.RID
		tu  rel.Tuple
	}
	var rows []stored
	if err := tb.Scan(func(rid storage.RID, tu rel.Tuple) error {
		rows = append(rows, stored{rid, tu})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[:min(2, len(rows))] {
		if err := tb.DeleteRID(r.rid, r.tu); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2; k++ {
		tu := rel.Tuple{rel.NewInt(int64(90 + k)), rel.NewInt(int64(round)), rel.NewInt(-1), rel.NewString(fmt.Sprintf("churn%d", round))}
		if _, err := tb.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
}

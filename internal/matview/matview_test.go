package matview

import (
	"testing"

	"dkbms/internal/rel"
)

func TestAutoIncremental(t *testing.T) {
	cases := []struct {
		delta, rows int
		want        bool
	}{
		{1, 0, true},    // empty view, tiny delta: floor applies
		{16, 10, true},  // at the floor
		{17, 10, false}, // past the floor on a small view
		{100, 1000, true} /* 100 <= 250 */, {251, 1000, false},
		{250, 1000, true}, // exactly at rows/4
	}
	for _, c := range cases {
		if got := AutoIncremental(c.delta, c.rows); got != c.want {
			t.Errorf("AutoIncremental(%d, %d) = %v, want %v", c.delta, c.rows, got, c.want)
		}
	}
}

func TestEventSizes(t *testing.T) {
	ev := &Event{Kind: EventCommit, Deltas: []TableDelta{
		{Table: "edb_parent", Inserted: []rel.Tuple{{rel.NewString("a"), rel.NewString("b")}}},
		{Table: "edb_likes", Inserted: []rel.Tuple{{rel.NewString("x"), rel.NewString("y")}},
			Deleted: []rel.Tuple{{rel.NewString("p"), rel.NewString("q")}}},
	}}
	if got := ev.Size(); got != 3 {
		t.Fatalf("Size() = %d, want 3", got)
	}
	if got := ev.RelevantSize([]string{"edb_parent"}); got != 1 {
		t.Fatalf("RelevantSize(parent) = %d, want 1", got)
	}
	if got := ev.RelevantSize([]string{"edb_likes", "edb_parent"}); got != 3 {
		t.Fatalf("RelevantSize(both) = %d, want 3", got)
	}
	if got := ev.RelevantSize(nil); got != 0 {
		t.Fatalf("RelevantSize(nil) = %d, want 0", got)
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EventCommit: "commit", EventRuleGen: "rulegen",
		EventKind(9): "eventkind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.Maintained.Add(3)
	c.Rederives.Add(2)
	c.DeltaTuples.Add(40)
	c.MaintainNs.Add(1500)
	c.Errors.Add(1)
	st := c.Snapshot()
	if st.Maintained != 3 || st.Rederives != 2 || st.DeltaTuples != 40 ||
		st.MaintainTime != 1500 || st.Errors != 1 {
		t.Fatalf("snapshot %+v", st)
	}
}

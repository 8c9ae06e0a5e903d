package dkbms_test

import (
	"errors"
	"testing"

	"dkbms"
)

// TestClosedTestbed is the regression test for the Close contract:
// every operation on a closed testbed — including a query whose answer
// was memoized before the close — fails with ErrClosed rather than
// reaching the flushed database.
func TestClosedTestbed(t *testing.T) {
	tb := dkbms.NewMemory()
	tb.MustLoad(`
		parent(john, mary). parent(mary, ann).
		ancestor(X, Y) :- parent(X, Y).
		ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
	`)
	c := dkbms.NewConcurrent(tb)
	if _, err := c.Query("?- ancestor(john, W).", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}

	checks := []struct {
		name string
		err  error
	}{
		{"Close", c.Close()},
		{"Testbed.Close", tb.Close()},
		{"Load", c.Load("parent(ann, sue).")},
		{"Testbed.Load", tb.Load("parent(ann, sue).")},
		{"Query", func() error { _, err := c.Query("?- ancestor(john, W).", nil); return err }()},
		{"Testbed.Query", func() error { _, err := tb.Query("?- ancestor(john, W).", nil); return err }()},
		{"Update", func() error { _, err := c.Update(); return err }()},
		{"Testbed.Update", func() error { _, err := tb.Update(); return err }()},
		{"Retract", func() error { _, err := c.RetractSrc("parent(john, X)"); return err }()},
		{"Testbed.Retract", func() error { _, err := tb.RetractSrc("parent(john, X)"); return err }()},
		{"CreateFactIndex", tb.CreateFactIndex("parent", 0)},
	}
	for _, c := range checks {
		if !errors.Is(c.err, dkbms.ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", c.name, c.err)
		}
	}
}

func TestRetract(t *testing.T) {
	tb := dkbms.NewMemory()
	defer tb.Close()
	tb.MustLoad(`
		parent(john, mary). parent(john, bob). parent(mary, ann).
		ancestor(X, Y) :- parent(X, Y).
		ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
	`)

	n, err := tb.RetractSrc("parent(john, X).")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("retracted %d facts, want 2", n)
	}
	res, err := tb.Query("?- ancestor(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("ancestor(john, W) after retract: %d rows, want 0", len(res.Rows))
	}
	res, err = tb.Query("?- ancestor(mary, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("ancestor(mary, W) = %d rows, want 1", len(res.Rows))
	}

	// Retracting an unknown predicate or a non-matching pattern is a
	// no-op, not an error.
	if n, err := tb.RetractSrc("nosuch(a)."); err != nil || n != 0 {
		t.Fatalf("retract unknown pred: n=%d err=%v", n, err)
	}
	if n, err := tb.RetractSrc("parent(zoe, X)."); err != nil || n != 0 {
		t.Fatalf("retract non-matching: n=%d err=%v", n, err)
	}
	// A rule is not a fact pattern.
	if _, err := tb.RetractSrc("p(X) :- q(X)."); err == nil {
		t.Fatal("retracting a rule should fail")
	}
}

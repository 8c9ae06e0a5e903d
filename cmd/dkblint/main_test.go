package main

import (
	"go/token"
	"testing"

	"dkbms/internal/lint/lintkit"
	"dkbms/internal/lint/lockorder"
)

// TestModuleClean runs the full suite over the real module and asserts
// zero findings: the tree must stay dkblint-clean. (Each analyzer's
// fixtures prove the checks fire; this proves the code obeys them.)
// It also pins the shape of the module's lock-order graph: a new lock
// class appearing — or one vanishing — should be a conscious decision,
// reviewed here, not an accident.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	fset := token.NewFileSet()
	pkgs, err := lintkit.Load(fset, ".", "dkbms/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	cache := lintkit.NewCache()
	diags, err := lintkit.RunWithCache(fset, pkgs, Analyzers, cache)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}

	cg := cache.BuiltCallGraph()
	if cg == nil {
		t.Fatal("no call graph in the cache after a module run")
	}
	if cg.NumFuncs() < 500 || cg.NumEdges() < 2000 {
		t.Errorf("implausibly small call graph: %d functions, %d edges", cg.NumFuncs(), cg.NumEdges())
	}

	g, ok := cache.Load(lockorder.GraphKey).(*lockorder.Graph)
	if !ok {
		t.Fatal("no lock-order graph in the cache after a module run")
	}
	const wantLocks = 17
	if len(g.Locks) != wantLocks {
		t.Errorf("lock-order graph has %d lock classes, want %d; update this pin when adding or removing a lock:\n%v",
			len(g.Locks), wantLocks, g.Locks)
	}
	for _, l := range []string{
		"dkbms.ConcurrentTestbed.commitMu",
		"catalog.Catalog.ddlMu",
		"storage.shard.mu",
		"snapshot.Store.mu",
		"sched.Group.mu",
	} {
		found := false
		for _, have := range g.Locks {
			if have == l {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("lock class %s missing from the module lock-order graph: %v", l, g.Locks)
		}
	}
	if g.OrderEdges == 0 || g.BlockingSites == 0 {
		t.Errorf("implausible lock graph: %d order edges, %d blocking sites", g.OrderEdges, g.BlockingSites)
	}
}

// TestJSONExit exercises the -json path end to end on one clean
// package.
func TestJSONExit(t *testing.T) {
	if code := run([]string{"-json", "dkbms/internal/wire"}); code != 0 {
		t.Fatalf("dkblint -json dkbms/internal/wire: exit %d, want 0", code)
	}
}

// TestDirectivesListing exercises the -directives registry listing.
func TestDirectivesListing(t *testing.T) {
	if code := run([]string{"-directives"}); code != 0 {
		t.Fatalf("dkblint -directives: exit %d, want 0", code)
	}
}

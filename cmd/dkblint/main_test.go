package main

import (
	"go/token"
	"go/types"
	"io"
	"strings"
	"testing"

	"dkbms/internal/lint/lintkit"
	"dkbms/internal/lint/lockorder"
)

// TestModuleClean runs the full suite over the real module and asserts
// zero findings: the tree must stay dkblint-clean. (Each analyzer's
// fixtures prove the checks fire; this proves the code obeys them.)
// It also pins the shape of the module's lock-order graph: a new lock
// class appearing — or one vanishing — should be a conscious decision,
// reviewed here, not an accident. The waiver count per directive is
// pinned for the same reason: a new waiver is a reviewed decision, not
// a way past a finding. It also fails on any call to a
// package-level sync/atomic function (atomic.AddInt64 and the like): a
// variable passed to one can be touched plainly elsewhere, while the
// methods of an atomic type (atomic.Int64, ...) are the only access the
// compiler allows to it.
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
	for _, p := range pkgs {
		if !p.Target || p.Info == nil {
			continue
		}
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				t.Errorf("%s: atomic.%s: use a sync/atomic type (atomic.Int64, ...) and its methods instead",
					fset.Position(id.Pos()), fn.Name())
			}
		}
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
	const wantLocks = 13
	if len(g.Locks) != wantLocks {
		t.Errorf("lock-order graph has %d lock classes, want %d; update this pin when adding or removing a lock:\n%v",
			len(g.Locks), wantLocks, g.Locks)
	}
	for _, l := range []string{
		"dkbms.ConcurrentTestbed.commitMu",
		"catalog.Catalog.ddlMu",
		"storage.Pager.mu",
		"snapshot.Store.mu",
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

	// The one bounded waiver is benchmark/main.go's, a directive no
	// analyzer reads any more.
	wantWaivers := map[string]int{"locksafe": 18, "pinsafe": 0, "bounded": 1}
	waivers := map[string]int{}
	for _, p := range pkgs {
		if !p.Target {
			continue
		}
		for _, f := range p.Files {
			for _, d := range lintkit.FileDirectives(fset, f) {
				waivers[d.Name]++
			}
		}
	}
	for _, spec := range lintkit.Directives {
		if waivers[spec.Name] != wantWaivers[spec.Name] {
			t.Errorf("%d //dkblint:%s waivers in the module, want %d; update this pin when adding or removing a waiver",
				waivers[spec.Name], spec.Name, wantWaivers[spec.Name])
		}
	}
}

// TestJSONExit exercises the -json path end to end on one clean
// package.
func TestJSONExit(t *testing.T) {
	if code := run([]string{"-json", "dkbms/internal/wire"}, io.Discard); code != 0 {
		t.Fatalf("dkblint -json dkbms/internal/wire: exit %d, want 0", code)
	}
}

// TestDirectivesListing checks that -h lists every analyzer and every
// registered directive, and exits 0.
func TestDirectivesListing(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-h"}, &out); code != 0 {
		t.Fatalf("dkblint -h: exit %d, want 0", code)
	}
	for _, a := range Analyzers {
		if !strings.Contains(out.String(), "  "+a.Name+" ") {
			t.Errorf("dkblint -h does not list analyzer %s:\n%s", a.Name, out.String())
		}
	}
	for _, d := range lintkit.Directives {
		if !strings.Contains(out.String(), "  "+d.Name+" ") {
			t.Errorf("dkblint -h does not list directive %s:\n%s", d.Name, out.String())
		}
	}
}

package storage

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"testing"
)

// pagesOf returns the pages a heap holds, directory and spill.
func pagesOf(t *testing.T, h *HeapFile) []PageID {
	t.Helper()
	var ids []PageID
	if err := h.EachPage(func(id PageID) error { ids = append(ids, id); return nil }); err != nil {
		t.Fatal(err)
	}
	return ids
}

// records returns a heap's records by RID.
func records(t *testing.T, h *HeapFile) map[RID]string {
	t.Helper()
	out := map[RID]string{}
	if err := h.Scan(func(rid RID, rec []byte) error { out[rid] = string(rec); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestForkCopiesOnFirstWrite: a fork shares every page of its heap and
// copies one on its first write — an insert's page, a delete's page —
// keeping its position, so every RID still names its record. The heap
// forked from reads as it did. Release frees what the fork replaced, and
// the fork's Truncate frees only the pages it owns.
func TestForkCopiesOnFirstWrite(t *testing.T) {
	p := NewMemPager(64)
	if _, err := p.EnsureSuperblock(); err != nil {
		t.Fatal(err)
	}
	h := CreateHeap(p)
	var rids []RID
	for i := 0; h.Len() < 3; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record %04d of the heap forked from", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	before, old := pagesOf(t, h), records(t, h)
	f := h.Fork()
	if !slices.Equal(pagesOf(t, f), before) || f.Written() != 0 {
		t.Fatalf("a fork holds %v and wrote %d; its source holds %v", pagesOf(t, f), f.Written(), before)
	}
	rid, err := f.Insert([]byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(rids[0]); err != nil {
		t.Fatal(err)
	}
	after := pagesOf(t, f)
	replaced := 0
	for i := range before {
		if after[i] != before[i] {
			replaced++
		}
	}
	if replaced != 2 || f.Written() != 2 || len(after) != len(before) || rid.Page != 2 {
		t.Fatalf("an insert on the tail page and a delete on the first: pages %v, were %v; %d written, insert at %s", after, before, f.Written(), rid)
	}
	if got := records(t, h); !maps.Equal(got, old) {
		t.Fatal("the heap forked from changed under its fork's writes")
	}
	want := withRecord(old, rids[0], rid, "new")
	if got := records(t, f); !maps.Equal(got, want) {
		t.Fatalf("the fork reads %d records, want %d", len(got), len(want))
	}
	free0, _ := p.FreePages()
	if err := h.Release(f); err != nil {
		t.Fatal(err)
	}
	if free1, _ := p.FreePages(); free1 != free0+2 {
		t.Fatalf("releasing the source freed %d pages, want the 2 its fork replaced", free1-free0)
	}
	if err := f.Truncate(); err != nil {
		t.Fatal(err)
	}
	if free2, _ := p.FreePages(); free2 != free0+4 || f.Len() != 0 {
		t.Fatalf("truncating the fork freed %d pages and left %d, want its own 2 and none", free2-free0-2, f.Len())
	}
}

// withRecord returns m without gone and with rec at added.
func withRecord(m map[RID]string, gone, added RID, rec string) map[RID]string {
	out := map[RID]string{added: rec}
	for k, v := range m {
		if k != gone {
			out[k] = v
		}
	}
	return out
}

// TestDirectorySpillsAndReloads: a directory longer than dirInline
// spills to a page of its own, the stored form names that page, and a
// reopened file loads the heap with every record at its RID; a
// directory short again stores inline and frees the spill page.
func TestDirectorySpillsAndReloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.db")
	p, err := OpenPager(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnsureSuperblock(); err != nil {
		t.Fatal(err)
	}
	h := CreateHeap(p)
	rec := make([]byte, 1500) // two records a page
	for i := 0; h.Len() <= dirInline+10; i++ {
		rec[0] = byte(i)
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	stored, err := h.AppendDir(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(pagesOf(t, h)); n != h.Len()+1 || len(stored) > 16 {
		t.Fatalf("a directory of %d pages: %d pages held, a stored form of %d bytes; want one spill page and its ID", h.Len(), n, len(stored))
	}
	want := records(t, h)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p, err = OpenPager(path, 16); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.EnsureSuperblock(); err != nil {
		t.Fatal(err)
	}
	h2, rest, err := LoadHeap(p, stored)
	if err != nil || len(rest) != 0 {
		t.Fatalf("LoadHeap: %v, %d bytes left", err, len(rest))
	}
	if got := records(t, h2); !maps.Equal(got, want) {
		t.Fatalf("the reloaded heap reads %d records, want %d", len(got), len(want))
	}
	if err := h2.Truncate(); err != nil {
		t.Fatal(err)
	}
	free0, _ := p.FreePages()
	if _, err := h2.AppendDir(nil); err != nil {
		t.Fatal(err)
	}
	if free1, _ := p.FreePages(); free1 != free0+1 || len(pagesOf(t, h2)) != 0 {
		t.Fatalf("an empty directory still holds %v; %d pages freed, want the spill page", pagesOf(t, h2), free1-free0)
	}
}

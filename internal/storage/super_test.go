package storage

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestSuperblockFreshAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	p, err := OpenPager(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	root, err := p.EnsureSuperblock()
	if err != nil {
		t.Fatal(err)
	}
	if root != nil {
		t.Fatalf("fresh root = %x", root)
	}
	h := CreateHeap(p)
	if _, err := h.Insert([]byte("catalog row")); err != nil {
		t.Fatal(err)
	}
	dir, err := h.AppendDir(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetRoot(dir); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPager(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	root2, err := p2.EnsureSuperblock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(root2, dir) {
		t.Fatalf("root after reopen = %x, want %x", root2, dir)
	}
	h2, _, err := LoadHeap(p2, root2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := h2.Count()
	if err != nil || n != 1 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestSuperblockBadMagic(t *testing.T) {
	p := NewMemPager(8)
	pg, err := p.Allocate() // page 0 without superblock formatting
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg)
	if _, err := p.EnsureSuperblock(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFreeListRecycling(t *testing.T) {
	p := NewMemPager(256)
	if _, err := p.EnsureSuperblock(); err != nil {
		t.Fatal(err)
	}
	h := CreateHeap(p)
	// Fill several pages.
	for i := 0; i < 3000; i++ {
		if _, err := h.Insert([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	grown := p.PageCount()
	if err := h.Drop(); err != nil {
		t.Fatal(err)
	}
	free, err := p.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if free < 10 {
		t.Fatalf("expected >=10 free pages after drop, got %d", free)
	}
	// A new heap of the same size must not grow the store.
	h2 := CreateHeap(p)
	for i := 0; i < 3000; i++ {
		if _, err := h2.Insert([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if p.PageCount() != grown {
		t.Fatalf("store grew from %d to %d pages despite free list", grown, p.PageCount())
	}
}

func TestTruncateReturnsTailPages(t *testing.T) {
	p := NewMemPager(256)
	if _, err := p.EnsureSuperblock(); err != nil {
		t.Fatal(err)
	}
	h := CreateHeap(p)
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Truncate(); err != nil {
		t.Fatal(err)
	}
	free, err := p.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if free == 0 {
		t.Fatal("truncate freed no pages")
	}
	n, err := h.Count()
	if err != nil || n != 0 {
		t.Fatalf("count after truncate = %d, %v", n, err)
	}
	// Reusable afterwards.
	if _, err := h.Insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestFreeWithoutSuperblockIsNoop(t *testing.T) {
	p := NewMemPager(8)
	h := CreateHeap(p)
	if _, err := h.Insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.EachPage(func(id PageID) error { return p.Free([]PageID{id}) }); err != nil {
		t.Fatal(err)
	}
	free, err := p.FreePages()
	if err != nil || free != 0 {
		t.Fatalf("free pages = %d, %v", free, err)
	}
}

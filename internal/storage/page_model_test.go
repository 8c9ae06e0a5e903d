package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refPage is the slotted page as it was before Page cached its free
// space: every question is answered by walking the slot directory. It
// is kept here as the reference the O(1) implementation must match byte
// for byte — the images a sequence of operations leaves on a page (and
// with them space_amp and every stored database) do not change. One
// line differs from the code it was copied from, see insert.
type refPage struct{ Data [PageSize]byte }

func (p *refPage) init() {
	p.Data = [PageSize]byte{}
	binary.BigEndian.PutUint32(p.Data[pageHdrNext:], uint32(InvalidPageID))
	binary.BigEndian.PutUint16(p.Data[pageHdrFreePtr:], pageHdrSize)
}

func (p *refPage) slotCount() int { return int(binary.BigEndian.Uint16(p.Data[pageHdrSlotCount:])) }

func (p *refPage) setSlotCount(n int) {
	binary.BigEndian.PutUint16(p.Data[pageHdrSlotCount:], uint16(n))
}

func (p *refPage) slot(i int) (off, length int) {
	base := pageHdrSize + i*slotSize
	return int(binary.BigEndian.Uint16(p.Data[base:])), int(binary.BigEndian.Uint16(p.Data[base+2:]))
}

func (p *refPage) setSlot(i, off, length int) {
	base := pageHdrSize + i*slotSize
	binary.BigEndian.PutUint16(p.Data[base:], uint16(off))
	binary.BigEndian.PutUint16(p.Data[base+2:], uint16(length))
}

func (p *refPage) recordLow() int {
	low := PageSize
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off != deadSlotOffset && off < low {
			low = off
		}
	}
	return low
}

func (p *refPage) room() int {
	return p.recordLow() - (pageHdrSize + p.slotCount()*slotSize) - slotSize
}

func (p *refPage) freeSpace() int { return max(p.room(), 0) }

func (p *refPage) insert(rec []byte) (int, bool) {
	// The original tested freeSpace() < len(rec): with the gap clamped at
	// zero, an empty record "fitted" a page with less than a directory
	// entry of room, and its entry was written over the lowest record
	// (FuzzPageOps' overlap check found it). Both now test the gap.
	if len(rec) > PageSize-pageHdrSize-slotSize || p.room() < len(rec) {
		return 0, false
	}
	newLow := p.recordLow() - len(rec)
	slotNo := -1
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off == deadSlotOffset {
			slotNo = i
			break
		}
	}
	if slotNo == -1 {
		slotNo = p.slotCount()
		p.setSlotCount(slotNo + 1)
	}
	copy(p.Data[newLow:], rec)
	p.setSlot(slotNo, newLow, len(rec))
	return slotNo, true
}

func (p *refPage) delete(slotNo int) bool {
	if slotNo < 0 || slotNo >= p.slotCount() {
		return false
	}
	if off, _ := p.slot(slotNo); off == deadSlotOffset {
		return false
	}
	p.setSlot(slotNo, deadSlotOffset, 0)
	return true
}

func (p *refPage) liveRecords() int {
	n := 0
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off != deadSlotOffset {
			n++
		}
	}
	return n
}

func (p *refPage) compact() {
	type liveRec struct {
		slot int
		data []byte
	}
	var live []liveRec
	for i := 0; i < p.slotCount(); i++ {
		if off, length := p.slot(i); off != deadSlotOffset {
			live = append(live, liveRec{i, append([]byte(nil), p.Data[off:off+length]...)})
		}
	}
	top := PageSize
	for _, r := range live {
		top -= len(r.data)
		copy(p.Data[top:], r.data)
		p.setSlot(r.slot, top, len(r.data))
	}
	n := p.slotCount()
	for n > 0 {
		if off, _ := p.slot(n - 1); off != deadSlotOffset {
			break
		}
		n--
	}
	p.setSlotCount(n)
}

// pagePair drives a Page and the reference through the same operations
// and fails the test at the first step after which they differ.
type pagePair struct {
	t    testing.TB
	pg   *Page
	ref  refPage
	step int
	fill byte
}

func newPagePair(t testing.TB) *pagePair {
	pp := &pagePair{t: t, pg: &Page{ID: 7}}
	pp.pg.Init()
	pp.ref.init()
	pp.check("init")
	return pp
}

// The operations, chosen by a byte: insert a record of arg-derived
// length, delete slot arg, compact, or reload (what eviction and a later
// Fetch do to a page: the bytes survive, the cached state does not).
func (pp *pagePair) apply(op, arg byte) {
	pp.step++
	switch op % 4 {
	case 0:
		// Mostly short records; now and then one that fills the page.
		n := int(arg)
		if arg >= 250 {
			n = int(arg-249) * 700
		}
		pp.fill++
		rec := bytes.Repeat([]byte{pp.fill}, n)
		want, wantOK := pp.ref.insert(rec)
		got, err := pp.pg.Insert(rec)
		if (err == nil) != wantOK || (wantOK && got != want) {
			pp.t.Fatalf("step %d: Insert(%d bytes) = slot %d, %v; reference slot %d, ok=%v", pp.step, n, got, err, want, wantOK)
		}
		pp.check(fmt.Sprintf("insert %d bytes", n))
	case 1:
		slot := int(arg) % (pp.ref.slotCount() + 2)
		wantOK := pp.ref.delete(slot)
		if err := pp.pg.Delete(slot); (err == nil) != wantOK {
			pp.t.Fatalf("step %d: Delete(%d) = %v; reference ok=%v", pp.step, slot, err, wantOK)
		}
		pp.check(fmt.Sprintf("delete slot %d", slot))
	case 2:
		pp.ref.compact()
		pp.pg.Compact()
		pp.check("compact")
	case 3:
		re := &Page{ID: pp.pg.ID, Data: new([PageSize]byte)}
		*re.Data = *pp.pg.Data
		if arg%2 == 0 {
			re.spaceInfo() // as Fetch does; odd args leave it to the first writer
		}
		pp.pg = re
		pp.check("reload")
	}
}

func (pp *pagePair) check(what string) {
	pp.t.Helper()
	if *pp.pg.Data != pp.ref.Data {
		pp.t.Fatalf("step %d (%s): page bytes differ from the reference", pp.step, what)
	}
	if got, want := pp.pg.LiveRecords(), pp.ref.liveRecords(); got != want {
		pp.t.Fatalf("step %d (%s): LiveRecords = %d, reference %d", pp.step, what, got, want)
	}
	if got, want := pp.pg.FreeSpace(), pp.ref.freeSpace(); got != want {
		pp.t.Fatalf("step %d (%s): FreeSpace = %d, reference %d", pp.step, what, got, want)
	}
	// Independent of the reference: live records lie inside the page,
	// above the slot directory, and do not overlap.
	type span struct{ off, end int }
	var live []span
	for s := 0; s < pp.pg.SlotCount(); s++ {
		if rec := pp.pg.Record(s); rec != nil {
			off, length := pp.pg.slot(s)
			live = append(live, span{off, off + length})
		}
	}
	sort.Slice(live, func(i, j int) bool {
		return live[i].off < live[j].off || live[i].off == live[j].off && live[i].end < live[j].end
	})
	floor := pageHdrSize + pp.pg.SlotCount()*slotSize
	for _, sp := range live {
		if sp.off < floor || sp.end > PageSize {
			pp.t.Fatalf("step %d (%s): record [%d,%d) outside the record area [%d,%d)", pp.step, what, sp.off, sp.end, floor, PageSize)
		}
		if sp.end > sp.off { // empty records take no room
			floor = sp.end
		}
	}
}

// TestPageMatchesReference: random insert / delete / compact / reload
// sequences leave the same bytes, free space and slot numbers as the
// directory-walking implementation the O(1) one replaced.
func TestPageMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pp := newPagePair(t)
		// Phases with different mixes: fill, churn, mostly delete.
		for _, mix := range [][]byte{{0, 0, 0, 0, 1, 3}, {0, 1, 0, 1, 2, 3}, {1, 1, 1, 0, 2, 3}} {
			for i := 0; i < 150; i++ {
				arg := byte(rng.Intn(256))
				if rng.Intn(3) > 0 {
					arg %= 40 // short records and low slots dominate
				}
				pp.apply(mix[rng.Intn(len(mix))], arg)
			}
		}
	}
}

// FuzzPageOps runs a byte string twice. As a sequence of (operation,
// argument) pairs against a Page and the reference: same bytes, same
// FreeSpace, records inside the page and disjoint. And as the contents
// of a page read from an untrusted store: nothing a reader or the
// pager's load path calls may panic on it.
func FuzzPageOps(f *testing.F) {
	f.Add([]byte{0, 16, 0, 16, 0, 16, 1, 2, 0, 8, 1, 0, 2, 0, 0, 200, 3, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		pp := newPagePair(t)
		for i := 0; i+1 < len(data) && i < 1200; i += 2 {
			pp.apply(data[i], data[i+1])
		}

		pg := Page{Data: new([PageSize]byte)}
		copy(pg.Data[:], data)
		pg.spaceInfo()
		pg.FreeSpace()
		pg.LiveRecords()
		for s := -1; s <= pg.SlotCount(); s++ {
			if rec := pg.Record(s); len(rec) > PageSize {
				t.Fatalf("Record(%d) returned %d bytes", s, len(rec))
			}
		}
	})
}

// TestHeapInsertOversizeLeavesNoPage: a record no page can hold is
// rejected before the chain is extended — it used to link a fresh page
// and then fail in Page.Insert, leaking one page per attempt.
func TestHeapInsertOversizeLeavesNoPage(t *testing.T) {
	p := NewMemPager(16)
	h := CreateHeap(p)
	// Leave too little room on the head page for a large record, so the
	// old code walked to the end of the chain.
	for i := 0; i < 3; i++ {
		if _, err := h.Insert(make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	chain := func() (pages int) {
		if err := h.ScanPages(func(*Page) error { pages++; return nil }); err != nil {
			t.Fatal(err)
		}
		return pages
	}
	pagesBefore, chainBefore := p.PageCount(), chain()
	for i := 0; i < 3; i++ {
		if _, err := h.Insert(make([]byte, MaxRecordSize+1)); err == nil {
			t.Fatal("oversize insert succeeded")
		}
	}
	if got := p.PageCount(); got != pagesBefore {
		t.Errorf("three failed inserts grew the store from %d to %d pages", pagesBefore, got)
	}
	if got := chain(); got != chainBefore {
		t.Errorf("three failed inserts grew the chain from %d to %d pages", chainBefore, got)
	}
	if _, err := h.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Errorf("a record of exactly MaxRecordSize: %v", err)
	}
}

// BenchmarkHeapInsert reports, beside ns/op, the cost of an insert into
// the first and into the second half of each page (the insert that
// allocates the page counted in neither): with free space and the slot
// to use answered from the cached pageSpace the two agree — the
// directory walks made the second half of a 16-byte-record page cost
// several times the first.
func BenchmarkHeapInsert(b *testing.B) {
	for _, size := range []int{16, 200} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			p := NewMemPager(4096)
			h := CreateHeap(p)
			rec := bytes.Repeat([]byte("x"), size)
			insert := func(n int) time.Duration {
				start := time.Now()
				for k := 0; k < n; k++ {
					if _, err := h.Insert(rec); err != nil {
						b.Fatal(err)
					}
				}
				return time.Since(start)
			}
			perPage := (PageSize - pageHdrSize) / (size + slotSize)
			early, late := perPage/2-1, perPage-perPage/2
			var spent [2]time.Duration
			pages := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i+perPage <= b.N; i += perPage {
				insert(1)
				spent[0] += insert(early)
				spent[1] += insert(late)
				pages++
			}
			insert(b.N - pages*perPage)
			if pages > 0 {
				b.ReportMetric(float64(spent[0].Nanoseconds())/float64(pages*early), "ns/insert-early")
				b.ReportMetric(float64(spent[1].Nanoseconds())/float64(pages*late), "ns/insert-late")
			}
		})
	}
}

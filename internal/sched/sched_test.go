package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupRunsEveryTask(t *testing.T) {
	p := NewPool(4)
	var n atomic.Int64
	g := p.Group()
	for i := 0; i < 100; i++ {
		g.Go(func(int) { n.Add(1) })
	}
	g.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d of 100 tasks", n.Load())
	}
	st := p.Stats()
	if st.Completed != 100 || st.Submitted != 100 {
		t.Fatalf("stats = %+v, want 100 submitted/completed", st)
	}
	if st.Running != 0 {
		t.Fatalf("%d slots still taken after Wait returned", st.Running)
	}
}

func TestWaitHelpsInline(t *testing.T) {
	// A pool of one slot, wedged on a task that blocks until the group
	// under test finishes. Wait must run the group's tasks itself or this
	// deadlocks.
	p := NewPool(1)
	release := make(chan struct{})
	bg := p.Group()
	bg.Go(func(int) { <-release })

	var n atomic.Int64
	g := p.Group()
	for i := 0; i < 10; i++ {
		g.Go(func(slot int) {
			if slot != -1 {
				t.Errorf("task ran on slot %d; the only slot is wedged", slot)
			}
			n.Add(1)
		})
	}
	done := make(chan struct{})
	go func() { g.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait deadlocked with the pool wedged")
	}
	if n.Load() != 10 {
		t.Fatalf("ran %d of 10 tasks", n.Load())
	}
	if st := p.Stats(); st.Stolen < 10 {
		t.Fatalf("stolen = %d, want >= 10 (all inline)", st.Stolen)
	}
	close(release)
	bg.Wait()
}

func TestNestedGroupsAnyPoolSize(t *testing.T) {
	// Tasks that fork nested groups and wait on them: the deadlock
	// shape help-first stealing exists to prevent.
	for _, slots := range []int{1, 2, 8} {
		p := NewPool(slots)
		var n atomic.Int64
		g := p.Group()
		for i := 0; i < 8; i++ {
			g.Go(func(int) {
				sub := p.Group()
				for j := 0; j < 8; j++ {
					sub.Go(func(int) { n.Add(1) })
				}
				sub.Wait()
			})
		}
		g.Wait()
		if n.Load() != 64 {
			t.Fatalf("slots=%d: ran %d of 64 nested tasks", slots, n.Load())
		}
	}
}

func TestGoroutinesBoundedByPoolSize(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(3)

	// 16 concurrent "sessions", each forking 32 tasks. Without a pool
	// that is 512 goroutines; with it, 3 slots plus the waiters.
	var wg sync.WaitGroup
	var peak atomic.Int64
	for s := 0; s < 16; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := p.Group()
			for i := 0; i < 32; i++ {
				g.Go(func(int) {
					if n := int64(runtime.NumGoroutine()); n > peak.Load() {
						peak.Store(n)
					}
				})
			}
			g.Wait()
		}()
	}
	wg.Wait()
	// base + 16 session goroutines + 3 slots + slack; far under 512.
	if limit := int64(base + 16 + 3 + 10); peak.Load() > limit {
		t.Fatalf("peak goroutines %d exceeds pool bound %d", peak.Load(), limit)
	}
}

// TestFloodDoesNotDelayOtherGroup: one evaluation holding every slot and
// queueing a flood of tasks must not hold up another's. The other
// group's Wait runs its task at once, inline, before any flood task
// has run.
func TestFloodDoesNotDelayOtherGroup(t *testing.T) {
	p := NewPool(1)
	gate := make(chan struct{})
	var floodRuns atomic.Int64
	fg := p.Group()
	fg.Go(func(int) { <-gate }) // the flood takes the only slot
	for i := 0; i < 64; i++ {
		fg.Go(func(int) { floodRuns.Add(1) })
	}

	var before int64 = -1
	pg := p.Group()
	pg.Go(func(int) { before = floodRuns.Load() })
	pg.Wait()
	if before != 0 {
		t.Fatalf("point task ran after %d flood tasks, want 0", before)
	}
	close(gate)
	fg.Wait()
	if floodRuns.Load() != 64 {
		t.Fatalf("ran %d of 64 flood tasks", floodRuns.Load())
	}
}

// TestSlotRunsItsGroupsQueue: a slot's goroutine that finishes a task
// runs the tasks its group queued meanwhile before it gives the slot
// back, so a burst keeps the slots it won busy without the waiter.
func TestSlotRunsItsGroupsQueue(t *testing.T) {
	p := NewPool(1)
	gate := make(chan struct{})
	var ran [3]atomic.Int64
	g := p.Group()
	g.Go(func(slot int) { <-gate; ran[0].Store(int64(slot) + 1) })
	g.Go(func(slot int) { ran[1].Store(int64(slot) + 1) }) // queued: no free slot
	g.Go(func(slot int) { ran[2].Store(int64(slot) + 1) })
	close(gate)
	// Poll instead of calling Wait, which would run the queued tasks
	// inline itself.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Completed < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	g.Wait()
	for i := range ran {
		if got := ran[i].Load() - 1; got != 0 {
			t.Errorf("task %d ran on slot %d, want slot 0", i, got)
		}
	}
	if st := p.Stats(); st.Stolen != 0 || st.Running != 0 {
		t.Fatalf("stats = %+v, want nothing stolen and the slot free", st)
	}
}

// TestIdlePoolHoldsNoGoroutine: the pool starts no goroutine of its
// own, and every goroutine a group starts has exited once the slot
// count shows its slot free.
func TestIdlePoolHoldsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(8)
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("NewPool started %d goroutines", n-base)
	}
	g := p.Group()
	for i := 0; i < 32; i++ {
		g.Go(func(int) {})
	}
	g.Wait()
	if r := p.Stats().Running; r != 0 {
		t.Fatalf("%d slots taken after Wait returned", r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines left after the group finished", n-base)
	}
}

func TestNewPoolDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := NewPool(0).Stats().Slots, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Slots = %d, want GOMAXPROCS = %d", got, want)
	}
}

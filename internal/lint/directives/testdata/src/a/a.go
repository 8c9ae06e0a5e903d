// Directive-grammar fixtures.
package a

import "sync"

type T struct{ mu sync.Mutex }

func waivedProperly(t *T, work func()) {
	t.mu.Lock() //dkblint:locksafe the lock serializes whole commits by design
	work()
	t.mu.Unlock()
}

func misspelled(t *T, work func()) {
	t.mu.Lock() //dkblint:locsafe serializes commits // want "unknown directive //dkblint:locsafe"
	work()
	t.mu.Unlock()
}

func bareWaiver(t *T, work func()) {
	t.mu.Lock() //dkblint:locksafe // want "waiver //dkblint:locksafe requires a justification"
	work()
	t.mu.Unlock()
}

//dkblint:bounded // want "waiver //dkblint:bounded requires a justification"
func bareBounded() {}

const fanout = 4 //dkblint:bounded=4 // want "unknown directive //dkblint:bounded=4"

// Waiver fixtures: //dkblint:locksafe suppresses the held-across-a-
// blocking-call finding at the waived acquisition, and nothing else —
// a cycle is reported at every witness, waived or not.
package waived

import (
	"os"
	"sync"
)

type S struct {
	mu sync.Mutex
	f  *os.File
}

// Commit's lock is a long-lived serialization lock by design.
func (s *S) Commit(b []byte) {
	s.mu.Lock() //dkblint:locksafe the commit lock serializes whole write-backs by design
	defer s.mu.Unlock()
	s.f.Write(b)
}

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

var a A
var b B

// The A→B witness is waived and the B→A witness is not; both sides of
// the cycle are reported.
func AB() {
	//dkblint:locksafe init-order only; BA is the audited path
	a.mu.Lock() // want "lock-order cycle: waived\\.B\\.mu acquired while waived\\.A\\.mu is held"
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func BA() {
	b.mu.Lock() // want "lock-order cycle: waived\\.A\\.mu acquired while waived\\.B\\.mu is held"
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

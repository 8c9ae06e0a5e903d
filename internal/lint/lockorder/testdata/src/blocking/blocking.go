// Blocking fixtures: I/O and channel operations reached while a lock
// is held, directly and through a call chain.
package blocking

import (
	"os"
	"sync"
)

type S struct {
	mu sync.Mutex
	f  *os.File
}

func (s *S) Write(b []byte) {
	s.mu.Lock()
	s.f.Write(b) // want "blocking\\.S\\.mu held across file I/O \\(os\\.File\\.Write\\)"
	s.mu.Unlock()
}

func (s *S) Send(ch chan int) {
	s.mu.Lock()
	ch <- 1 // want "blocking\\.S\\.mu held across a channel send"
	s.mu.Unlock()
}

func (s *S) Recv(ch chan int) int {
	s.mu.Lock()
	v := <-ch // want "blocking\\.S\\.mu held across a channel receive"
	s.mu.Unlock()
	return v
}

func sync3(f *os.File) { f.Sync() }

// Flush reaches file I/O two frames down; the diagnostic names the
// chain.
func (s *S) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	sync3(s.f) // want "blocking\\.S\\.mu held across file I/O \\(os\\.File\\.Sync\\) \\(via blocking\\.sync3\\)"
}

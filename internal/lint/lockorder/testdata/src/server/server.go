// Package server is a stand-in for the server: no connection I/O while
// the session-table mutex is held; collect-then-release is the
// sanctioned shape.
package server

import (
	"io"
	"sync"

	"wire"
)

type Server struct {
	mu       sync.Mutex
	sessions map[int]io.Writer
}

func (s *Server) broadcastBad(frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.sessions {
		wire.WriteFrame(w, frame) // want "server\\.Server\\.mu held across connection I/O \\(wire\\.WriteFrame\\)"
	}
}

func (s *Server) broadcastOK(frame []byte) {
	s.mu.Lock()
	targets := make([]io.Writer, 0, len(s.sessions))
	for _, w := range s.sessions {
		targets = append(targets, w)
	}
	s.mu.Unlock()
	for _, w := range targets {
		wire.WriteFrame(w, frame)
	}
}

// Package connset holds the shutdown bookkeeping shared by the TCP front
// ends (edgenet.Server and serve.Frontend): a listener plus the live
// connections that closing it must sever.
package connset

import (
	"errors"
	"net"
	"sync"
)

// Set owns a listener and the connections tracked from it. Close closes the
// listener and every tracked connection under one lock, so a connection is
// either tracked before Close (and severed by it) or refused by Track after
// it. Safe for concurrent use.
type Set struct {
	ln     net.Listener
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// New returns an open set that owns ln.
func New(ln net.Listener) *Set {
	return &Set{ln: ln, conns: map[net.Conn]struct{}{}}
}

// Track registers c. It returns false once Close has begun; the caller must
// then close c itself and abandon it.
func (s *Set) Track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// Untrack removes c (a no-op when c is not tracked).
func (s *Set) Untrack(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// Closed reports whether Close has begun.
func (s *Set) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close closes the listener and severs every tracked connection, unblocking
// their reads. It is idempotent and safe to call concurrently: repeated
// calls, and a listener that was already closed, return nil rather than a
// spurious "use of closed network connection".
func (s *Set) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	if already || err == nil || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

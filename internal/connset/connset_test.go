package connset

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// connPair returns the accepted end of a fresh loopback connection; both
// ends are closed when the test ends.
func connPair(t *testing.T, ln net.Listener) net.Conn {
	t.Helper()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return server
}

func TestCloseIsIdempotentUnderConcurrency(t *testing.T) {
	s := New(listen(t))
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent close %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("repeated close: %v", err)
	}
	if !s.Closed() {
		t.Fatal("Closed() false after Close")
	}
}

func TestCloseToleratesClosedListener(t *testing.T) {
	ln := listen(t)
	s := New(ln)
	ln.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("close over an already-closed listener: %v", err)
	}
}

func TestTrackRefusedAfterClose(t *testing.T) {
	pairs := listen(t)
	defer pairs.Close()
	s := New(listen(t))
	if s.Closed() {
		t.Fatal("new set reports closed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Track(connPair(t, pairs)) {
		t.Fatal("Track accepted a conn after Close")
	}
}

// TestCloseSeversTrackedConns: every conn still tracked at Close is closed
// (its reads fail with net.ErrClosed at once); an untracked conn is left
// alone, and the listener stops accepting.
func TestCloseSeversTrackedConns(t *testing.T) {
	pairs := listen(t)
	defer pairs.Close()
	ln := listen(t)
	s := New(ln)
	tracked := []net.Conn{connPair(t, pairs), connPair(t, pairs), connPair(t, pairs)}
	for _, c := range tracked {
		if !s.Track(c) {
			t.Fatal("Track refused a conn before Close")
		}
	}
	left := connPair(t, pairs)
	s.Track(left)
	s.Untrack(left)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for i, c := range tracked {
		if _, err := c.Read(buf); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("tracked conn %d: read err %v, want net.ErrClosed", i, err)
		}
	}
	_ = left.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	var ne net.Error
	if _, err := left.Read(buf); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("untracked conn: read err %v, want a timeout on a live conn", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after Close: %v, want net.ErrClosed", err)
	}
}

// TestTrackRacingCloseNeverStrandsAConn: with Track calls racing Close, every
// conn is either refused by Track or severed by Close — none stays open and
// tracked by a closed set.
func TestTrackRacingCloseNeverStrandsAConn(t *testing.T) {
	pairs := listen(t)
	defer pairs.Close()
	conns := make([]net.Conn, 8)
	for i := range conns {
		conns[i] = connPair(t, pairs)
	}
	s := New(listen(t))
	tracked := make([]bool, len(conns))
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tracked[i] = s.Track(conns[i])
		}(i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	buf := make([]byte, 1)
	for i, c := range conns {
		if !tracked[i] {
			continue
		}
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second)) // fail, not hang
		if _, err := c.Read(buf); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("conn %d tracked but not severed by Close: read err %v", i, err)
		}
	}
}

package edgenet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Direction selects one side of a proxied link.
type Direction int

const (
	// Upstream is client → target (edge agent → scheduler).
	Upstream Direction = iota
	// Downstream is target → client (scheduler → edge agent).
	Downstream
)

// FaultProxy is a fault-injection TCP proxy: every connection accepted on
// its listen address is forwarded to a target address, with injectable
// faults in between. It is frame-aware — it parses the 4-byte length prefix
// of the edgenet protocol — so faults land on message boundaries:
//
//   - SetDelay: per-direction delivery delay on every frame (a slow edge);
//   - Partition: silently discard one direction's frames while the
//     connection stays open (an asymmetric network split);
//   - DropAfter: a fuse that hard-closes every active link after the next N
//     forwarded frames (a deterministic mid-protocol crash);
//   - KillConns: hard-close every active link now, keeping the listener up
//     so clients can reconnect (a process restart).
//
// Frames reports how many frames each direction has carried, so a test can
// assert that a peer sent nothing beyond what the protocol allows.
//
// It is the test substrate for the failure and rejoin paths; peers that do
// not speak the length-prefixed framing will stall in the frame parser.
type FaultProxy struct {
	ln     net.Listener
	target string

	mu        sync.Mutex
	delay     [2]time.Duration
	partition [2]bool
	// seen counts the frames read in each direction, faulted ones included.
	seen [2]int
	// fuse counts forwarded frames until every link is cut (-1 = disarmed).
	fuse int
	// cutting is set from the moment the fuse blows after forwarding a frame
	// until that frame's pump has cut the links: a frame any link reads in
	// between (say, the peer's instant answer to the fuse's last frame) is
	// swallowed instead of slipping through. Only the blowing pump cuts, so a
	// link dialed after the cut is never hit by a late second one.
	cutting bool
	links   map[*link]bool
	wg      sync.WaitGroup
}

// link is one proxied client↔target connection pair.
type link struct {
	client, server net.Conn
}

func (l *link) closeBoth() {
	_ = l.client.Close()
	_ = l.server.Close()
}

// NewFaultProxy listens on listen (e.g. "127.0.0.1:0") and forwards each
// accepted connection to target.
func NewFaultProxy(listen, target string) (*FaultProxy, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("edgenet: faultnet listen: %w", err)
	}
	p := &FaultProxy{ln: ln, target: target, fuse: -1, links: make(map[*link]bool)}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (for clients to dial).
func (p *FaultProxy) Addr() net.Addr { return p.ln.Addr() }

// SetDelay delays every forwarded frame in dir by d (0 restores instant
// forwarding).
func (p *FaultProxy) SetDelay(dir Direction, d time.Duration) {
	p.mu.Lock()
	p.delay[dir] = d
	p.mu.Unlock()
}

// Partition turns the one-way partition in dir on or off: while on, frames
// in that direction are read and silently discarded, so the receiving side
// sees an open-but-silent peer.
func (p *FaultProxy) Partition(dir Direction, on bool) {
	p.mu.Lock()
	p.partition[dir] = on
	p.mu.Unlock()
}

// DropAfter arms the frame fuse: after n more forwarded frames (both
// directions, all links combined) every active link is hard-closed. n <= 0
// cuts on the very next frame before forwarding it. Connections made after
// the fuse blows forward normally until DropAfter is armed again.
func (p *FaultProxy) DropAfter(n int) {
	p.mu.Lock()
	if n < 0 {
		n = 0
	}
	p.fuse = n
	p.mu.Unlock()
}

// Frames returns the number of whole frames the proxy has read in dir, over
// all links — including frames a partition swallowed or a fuse cut.
func (p *FaultProxy) Frames(dir Direction) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[dir]
}

// KillConns hard-closes every active link immediately, leaving the listener
// up so clients can reconnect.
func (p *FaultProxy) KillConns() {
	p.mu.Lock()
	for l := range p.links {
		l.closeBoth()
	}
	p.links = make(map[*link]bool)
	p.cutting = false
	p.mu.Unlock()
}

// Close shuts down the listener and every active link, and waits for the
// forwarding goroutines to drain.
func (p *FaultProxy) Close() error {
	err := p.ln.Close()
	p.KillConns()
	p.wg.Wait()
	return err
}

func (p *FaultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		cl, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sv, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = cl.Close()
			continue
		}
		l := &link{client: cl, server: sv}
		p.mu.Lock()
		p.links[l] = true
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(l, Upstream, cl, sv)
		go p.pump(l, Downstream, sv, cl)
	}
}

// pump forwards frames from src to dst, applying the faults configured for
// dir; any read or write error tears the whole link down.
func (p *FaultProxy) pump(l *link, dir Direction, src, dst net.Conn) {
	defer p.wg.Done()
	defer p.dropLink(l)
	var hdr [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > MaxMessageBytes {
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(src, buf); err != nil {
			return
		}
		delay, drop, cutBefore, cutAfter := p.frameFate(dir)
		if delay > 0 {
			time.Sleep(delay)
		}
		if cutBefore {
			p.KillConns()
			return
		}
		if drop {
			continue
		}
		_, err := dst.Write(hdr[:])
		if err == nil {
			_, err = dst.Write(buf)
		}
		if cutAfter {
			p.KillConns() // even after a failed write: it clears cutting
			return
		}
		if err != nil {
			return
		}
	}
}

// frameFate consumes one frame's worth of fault state under the lock: the
// configured delay, whether the partition swallows the frame, and whether
// the fuse blows before or after forwarding it.
func (p *FaultProxy) frameFate(dir Direction) (delay time.Duration, drop, cutBefore, cutAfter bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen[dir]++
	delay = p.delay[dir]
	if p.cutting {
		return delay, true, false, false
	}
	drop = p.partition[dir]
	if drop {
		return delay, drop, false, false // a swallowed frame never burns the fuse
	}
	switch {
	case p.fuse < 0:
	case p.fuse == 0:
		cutBefore = true
		p.fuse = -1 // disarm: the links are about to die
	default:
		p.fuse--
		if p.fuse == 0 {
			cutAfter = true
			p.fuse = -1
			p.cutting = true
		}
	}
	return delay, drop, cutBefore, cutAfter
}

func (p *FaultProxy) dropLink(l *link) {
	p.mu.Lock()
	delete(p.links, l)
	p.mu.Unlock()
	l.closeBoth()
}

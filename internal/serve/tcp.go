package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"repro/internal/connset"
)

// wireDecision is the JSON-lines response: one object per request object
// received, in order.
type wireDecision struct {
	ID     int64  `json:"id"`
	Admit  bool   `json:"admit"`
	Edge   int    `json:"edge"`
	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Frontend serves the newline-delimited JSON request protocol over TCP:
// each line in is a Request object ({"id","app","region"}), each line out
// the matching decision ({"id","admit","edge","reason"}). A request
// carrying no arrive_ns is stamped with the injected clock — the only
// place wall time may enter the serving layer, and it stays in the
// caller's hands (tests inject a virtual counter; the daemon injects a
// monotonic wall reading).
type Frontend struct {
	loop *Loop
	now  func() int64
	ln   net.Listener

	conns *connset.Set // the listener and every live conn
	wg    sync.WaitGroup
}

// NewFrontend listens on addr ("host:port", empty port for ephemeral) and
// starts the accept loop. nowNS supplies arrival timestamps for requests
// that carry none; it must be monotone non-decreasing.
func NewFrontend(loop *Loop, addr string, nowNS func() int64) (*Frontend, error) {
	if nowNS == nil {
		return nil, fmt.Errorf("serve: frontend needs a clock")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	f := &Frontend{loop: loop, now: nowNS, ln: ln, conns: connset.New(ln)}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr is the bound listen address (useful with an ephemeral port).
func (f *Frontend) Addr() string { return f.ln.Addr().String() }

func (f *Frontend) acceptLoop() {
	defer f.wg.Done()
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !f.conns.Track(c) {
			c.Close()
			return
		}
		f.wg.Add(1)
		go f.serveConn(c)
	}
}

func (f *Frontend) serveConn(c net.Conn) {
	defer f.wg.Done()
	defer f.conns.Untrack(c)
	defer c.Close()
	dec := json.NewDecoder(c)
	enc := json.NewEncoder(c)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // EOF, malformed line, or conn severed by Close
		}
		if req.ArriveNS == 0 {
			req.ArriveNS = f.now()
		}
		d, err := f.loop.Submit(req)
		if err != nil {
			_ = enc.Encode(wireDecision{ID: req.ID, Edge: -1, Error: err.Error()})
			return
		}
		resp := wireDecision{ID: d.Req.ID, Admit: d.Admitted, Edge: d.Edge, Reason: d.Reason}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// Close stops accepting, severs every live connection (unblocking their
// reads), and waits for all handler goroutines to exit. Idempotent and
// safe to call concurrently.
func (f *Frontend) Close() error {
	err := f.conns.Close()
	f.wg.Wait()
	return err
}

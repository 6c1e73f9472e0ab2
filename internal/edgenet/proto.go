// Package edgenet is the distributed prototype of the edge collaborative
// system: a scheduler server and edge agents talking a length-prefixed JSON
// protocol over TCP. It mirrors the paper's deployment — a cloud-edge
// interface that collects each edge's arrivals every slot, runs the BIRP
// decision, pushes per-edge assignments, and folds execution feedback back
// into the MAB tuner — with real sockets instead of the in-process
// simulator. Both executors share edgesim.ExecuteEdge, so results agree.
package edgenet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/edgesim"
)

// ProtocolVersion is negotiated in the hello exchange; mismatched peers are
// rejected instead of silently mis-parsing each other. Version 2 added the
// hello → resync handshake and the rejoin fields (Resume, LastSlot): every
// hello — initial or re-registration — is answered with a TypeResync carrying
// the slot at which the agent (re)enters the barrier. Version 3 ends the
// session in-band: the run's last TypeAssign carries Final, and the agent
// leaves after reporting it instead of speculatively sending the next slot's
// arrivals into a connection the scheduler is about to close.
const ProtocolVersion = 3

// Message types.
const (
	// TypeHello registers an edge agent with the scheduler (initial
	// registration or mid-run rejoin; see Resume/LastSlot).
	TypeHello = "hello"
	// TypeResync acks a hello (scheduler → edge): Slot is the slot the agent
	// must serve next. Initial registrations are resync'd to slot 0;
	// rejoining agents are resync'd at the next slot boundary.
	TypeResync = "resync"
	// TypeArrivals reports one slot's local arrivals (edge → scheduler).
	TypeArrivals = "arrivals"
	// TypeAssign delivers one slot's work to an edge (scheduler → edge);
	// the run's last one carries Final and ends the session once reported.
	TypeAssign = "assign"
	// TypeReport returns execution results (edge → scheduler).
	TypeReport = "report"
	// TypeError aborts the session.
	TypeError = "error"
)

// Assignment is the per-edge slice of a slot plan.
type Assignment struct {
	App        int   `json:"app"`
	Version    int   `json:"version"`
	Requests   int   `json:"requests"`
	BatchSizes []int `json:"batchSizes"`
}

// Message is the single wire envelope; unused fields are omitted.
type Message struct {
	Type   string `json:"type"`
	EdgeID int    `json:"edgeId"`
	Slot   int    `json:"slot"`
	// Name identifies the agent in hello messages.
	Name string `json:"name,omitempty"`
	// Version is the sender's ProtocolVersion (hello messages).
	Version int `json:"version,omitempty"`
	// Resume marks a hello as a mid-run rejoin after a connection loss
	// (informational — the scheduler treats any hello for a downed edge as a
	// rejoin, so a fully restarted agent process recovers too).
	Resume bool `json:"resume,omitempty"`
	// LastSlot is the last slot the resuming agent fully reported (-1 when it
	// never completed one). The scheduler's resync, not this value, decides
	// where the agent re-enters the barrier.
	LastSlot int `json:"lastSlot,omitempty"`
	// Arrivals[i] is the per-application arrival count (TypeArrivals).
	Arrivals []int `json:"arrivals,omitempty"`
	// Assignments carries the slot's work (TypeAssign).
	Assignments []Assignment `json:"assignments,omitempty"`
	// Dropped[i] is the per-application drop count at this edge (TypeAssign).
	Dropped []int `json:"dropped,omitempty"`
	// Final marks the run's last TypeAssign: the agent reports it and ends
	// the session without sending another frame.
	Final bool `json:"final,omitempty"`
	// CompletionMS and Loss summarize execution (TypeReport);
	// CompletionApp carries each entry's application for per-app SLOs.
	CompletionMS  []float64 `json:"completionMs,omitempty"`
	CompletionApp []int     `json:"completionApp,omitempty"`
	Loss          float64   `json:"loss,omitempty"`
	// Feedback carries realized TIR observations (TypeReport).
	Feedback []edgesim.Feedback `json:"feedback,omitempty"`
	// Err carries the reason for TypeError.
	Err string `json:"err,omitempty"`
}

// MaxMessageBytes bounds a single frame; larger frames abort the connection
// (malformed peer or protocol desync).
const MaxMessageBytes = 16 << 20

// WriteMessage frames and writes one message: 4-byte big-endian length, then
// the JSON body. Safe for concurrent use only with external locking.
func WriteMessage(w io.Writer, m *Message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("edgenet: marshal: %w", err)
	}
	if len(body) > MaxMessageBytes {
		return fmt.Errorf("edgenet: message of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageBytes {
		return nil, fmt.Errorf("edgenet: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("edgenet: unmarshal: %w", err)
	}
	return &m, nil
}

// conn wraps a net.Conn with a write lock and framed codec.
type conn struct {
	raw net.Conn
	wmu sync.Mutex
}

func (c *conn) send(m *Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return WriteMessage(c.raw, m)
}

func (c *conn) recv() (*Message, error) { return ReadMessage(c.raw) }

func (c *conn) close() { _ = c.raw.Close() }

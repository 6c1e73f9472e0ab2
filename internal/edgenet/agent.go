package edgenet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/edgesim"
	"repro/internal/models"
)

// AgentConfig assembles one edge agent.
type AgentConfig struct {
	// Addr is the scheduler's TCP address.
	Addr string
	// EdgeID is this agent's index in the server's cluster.
	EdgeID int
	// Device is the local accelerator model.
	Device *accel.Device
	// Apps is the application catalogue (must match the server's).
	Apps []*models.Application
	// Arrivals[t][i] is this edge's local arrival stream.
	Arrivals [][]int
	// NoiseSigma perturbs execution times; SlotNoiseSigma adds correlated
	// per-slot interference (see edgesim.Config); Seed drives both.
	NoiseSigma     float64
	SlotNoiseSigma float64
	Seed           int64
	// Realtime, when positive, makes the agent actually sleep
	// execution-time × Realtime (e.g. 0.001 to demo live pacing); zero
	// executes instantly on the device model.
	Realtime float64
	// DialTimeout bounds each connection attempt (0 = 10s).
	DialTimeout time.Duration
	// DialRetries is the number of extra dial attempts after the first one
	// fails, with exponential backoff and seeded jitter in between (0 = the
	// first dial error is fatal). With retries, launch order stops
	// mattering: the agent can come up before the scheduler.
	DialRetries int
	// ReconnectRetries bounds the redial attempts after a mid-run
	// connection loss; the agent re-helloes with Resume set and waits for
	// the scheduler's resync before re-entering the barrier. Each
	// successful rejoin refills the budget. 0 disables reconnection: the
	// first connection error is fatal.
	ReconnectRetries int
	// Backoff is the base delay of the exponential backoff schedule
	// (0 = 100ms). Retry n sleeps a jittered duration in [b·2ⁿ/2, b·2ⁿ],
	// capped at 5s; the jitter is drawn from a seeded RNG so a given agent
	// configuration retries on a reproducible schedule.
	Backoff time.Duration
}

// Agent is one edge node of the distributed prototype.
type Agent struct {
	cfg AgentConfig
	rng *rand.Rand
	// boff jitters retry delays; it is separate from rng so reconnects never
	// perturb the execution-noise stream.
	boff *rand.Rand

	// mu guards cur/closed so a context cancellation can sever whichever
	// connection the agent currently holds, including mid-reconnect.
	mu     sync.Mutex
	cur    *conn
	closed bool
}

// errConnLost tags connection-level failures (as opposed to the scheduler
// rejecting or aborting the session); only these are worth a reconnect.
var errConnLost = errors.New("connection lost")

// NewAgent validates the configuration.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Device == nil || len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("edgenet: agent needs a device and applications")
	}
	if cfg.EdgeID < 0 {
		return nil, fmt.Errorf("edgenet: negative edge id")
	}
	if len(cfg.Arrivals) == 0 {
		return nil, fmt.Errorf("edgenet: agent needs an arrival stream")
	}
	if cfg.DialRetries < 0 || cfg.ReconnectRetries < 0 {
		return nil, fmt.Errorf("edgenet: negative retry budget")
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	return &Agent{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		boff: rand.New(rand.NewSource(cfg.Seed ^ 0x62697270)),
	}, nil
}

// Run connects, registers, and serves the slot protocol until it has
// reported the scheduler's final assignment (or an error/cancellation
// occurs). On a mid-run connection loss with ReconnectRetries budgeted, it
// redials, re-helloes with Resume set, and resumes at the slot the
// scheduler's resync names.
func (a *Agent) Run(ctx context.Context) error {
	a.mu.Lock()
	a.closed = false
	a.cur = nil
	a.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.closed = true
		if a.cur != nil {
			a.cur.close()
		}
		a.mu.Unlock()
	})
	defer stop()
	defer a.setConn(nil)

	c, t, err := a.join(ctx, a.cfg.DialRetries, false, -1)
	if err != nil {
		return err
	}
	lastDone := -1
	for {
		err := a.serve(ctx, c, &t, &lastDone)
		c.close()
		a.setConn(nil)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || a.cfg.ReconnectRetries == 0 || !errors.Is(err, errConnLost) {
			return err
		}
		c2, t2, jerr := a.join(ctx, a.cfg.ReconnectRetries, true, lastDone)
		if jerr != nil {
			return fmt.Errorf("edgenet: agent %d reconnect: %w (after %v)", a.cfg.EdgeID, jerr, err)
		}
		c, t = c2, t2
	}
}

// setConn records the connection the context-cancel hook should sever; if
// the context already fired, the new connection is closed on the spot.
func (a *Agent) setConn(c *conn) {
	a.mu.Lock()
	a.cur = c
	if a.closed && c != nil {
		c.close()
	}
	a.mu.Unlock()
}

// join dials (with up to 1+retries attempts), says hello, and waits for the
// scheduler's resync ack; it returns the connection and the slot at which to
// (re)enter the barrier.
func (a *Agent) join(ctx context.Context, retries int, resume bool, lastSlot int) (*conn, int, error) {
	c, err := a.dial(ctx, retries)
	if err != nil {
		return nil, 0, err
	}
	a.setConn(c)
	hello := &Message{
		Type: TypeHello, EdgeID: a.cfg.EdgeID, Name: a.cfg.Device.Name,
		Version: ProtocolVersion, Resume: resume, LastSlot: lastSlot,
	}
	if err := c.send(hello); err != nil {
		c.close()
		return nil, 0, fmt.Errorf("edgenet: agent %d hello: %w", a.cfg.EdgeID, err)
	}
	m, err := c.recv()
	if err != nil {
		c.close()
		return nil, 0, fmt.Errorf("edgenet: agent %d await resync: %w", a.cfg.EdgeID, err)
	}
	switch m.Type {
	case TypeResync:
		return c, m.Slot, nil
	case TypeError:
		c.close()
		return nil, 0, fmt.Errorf("edgenet: agent %d rejected: %s", a.cfg.EdgeID, m.Err)
	default:
		c.close()
		return nil, 0, fmt.Errorf("edgenet: agent %d: unexpected %q before resync", a.cfg.EdgeID, m.Type)
	}
}

// dial connects with up to 1+retries attempts, sleeping a seeded
// exponential-backoff delay between failures; ctx cancellation aborts the
// wait immediately.
func (a *Agent) dial(ctx context.Context, retries int) (*conn, error) {
	d := net.Dialer{Timeout: a.cfg.DialTimeout}
	for attempt := 0; ; attempt++ {
		raw, err := d.DialContext(ctx, "tcp", a.cfg.Addr)
		if err == nil {
			return &conn{raw: raw}, nil
		}
		if attempt >= retries {
			return nil, fmt.Errorf("edgenet: agent %d dial (%d attempts): %w", a.cfg.EdgeID, attempt+1, err)
		}
		select {
		case <-time.After(a.backoffDelay(attempt)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// backoffDelay is retry attempt's delay: exponential in the attempt number
// with seeded jitter in [d/2, d], capped at 5s.
func (a *Agent) backoffDelay(attempt int) time.Duration {
	const maxDelay = 5 * time.Second
	d := a.cfg.Backoff
	for i := 0; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d <= 0 || d > maxDelay {
		d = maxDelay
	}
	half := d / 2
	return half + time.Duration(a.boff.Int63n(int64(half)+1))
}

// serve runs the slot barrier on c starting at slot *t until the final
// assignment is reported (returns nil), the connection drops (returns an
// error wrapping errConnLost — recoverable when reconnects are budgeted), or
// the scheduler rejects or aborts the session (fatal). lastDone tracks the last slot
// fully reported, which a rejoin hello carries as LastSlot.
func (a *Agent) serve(ctx context.Context, c *conn, t, lastDone *int) error {
	for ; ; *t++ {
		arr := make([]int, len(a.cfg.Apps))
		if *t < len(a.cfg.Arrivals) {
			copy(arr, a.cfg.Arrivals[*t])
		}
		if err := c.send(&Message{Type: TypeArrivals, EdgeID: a.cfg.EdgeID, Slot: *t, Arrivals: arr}); err != nil {
			return fmt.Errorf("edgenet: agent %d arrivals: %w: %w", a.cfg.EdgeID, errConnLost, err)
		}
		m, err := c.recv()
		if err != nil {
			return fmt.Errorf("edgenet: agent %d recv: %w: %w", a.cfg.EdgeID, errConnLost, err)
		}
		switch m.Type {
		case TypeError:
			return fmt.Errorf("edgenet: agent %d: scheduler error: %s", a.cfg.EdgeID, m.Err)
		case TypeAssign:
			// fall through to execution
		default:
			return fmt.Errorf("edgenet: agent %d: unexpected %q", a.cfg.EdgeID, m.Type)
		}
		deps := make([]edgesim.Deployment, len(m.Assignments))
		for i, asg := range m.Assignments {
			deps[i] = edgesim.Deployment{
				App: asg.App, Version: asg.Version, Edge: a.cfg.EdgeID,
				Requests: asg.Requests, BatchSizes: asg.BatchSizes,
			}
		}
		scale := 1.0
		if a.cfg.SlotNoiseSigma > 0 {
			scale = 1 + a.rng.NormFloat64()*a.cfg.SlotNoiseSigma
			if scale < 0.5 {
				scale = 0.5
			}
		}
		exec := edgesim.ExecuteEdge(a.cfg.Device, a.cfg.Apps, a.cfg.EdgeID,
			deps, a.cfg.NoiseSigma, scale, a.rng)
		if a.cfg.Realtime > 0 {
			select {
			case <-time.After(time.Duration(exec.MakespanMS*a.cfg.Realtime) * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := c.send(&Message{
			Type: TypeReport, EdgeID: a.cfg.EdgeID, Slot: m.Slot,
			CompletionMS: exec.CompletionMS, CompletionApp: exec.CompletionApp,
			Loss: exec.Loss, Feedback: exec.Feedback,
		}); err != nil {
			return fmt.Errorf("edgenet: agent %d report: %w: %w", a.cfg.EdgeID, errConnLost, err)
		}
		*lastDone = *t
		if m.Final {
			return nil
		}
	}
}

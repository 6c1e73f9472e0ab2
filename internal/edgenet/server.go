package edgenet

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/connset"
	"repro/internal/edgesim"
	"repro/internal/metrics"
	"repro/internal/models"
)

// ServerConfig assembles a scheduler server.
type ServerConfig struct {
	// Listen is the TCP address ("127.0.0.1:0" for an ephemeral port).
	Listen string
	// Cluster and Apps define the system; EdgeID k in the protocol refers to
	// Cluster.Edges[k].
	Cluster *cluster.Cluster
	Apps    []*models.Application
	// Scheduler is the decision algorithm (BIRP, OAEI, ...).
	Scheduler edgesim.Scheduler
	// Slots is the number of scheduling rounds to run.
	Slots int
	// SlotTimeout bounds each protocol phase (0 = 30s).
	SlotTimeout time.Duration
	// TolerateFailures keeps the run alive when an edge agent dies or
	// violates the protocol: the dead edge is excluded from planning (via the
	// scheduler's SetEdgeDown, when supported), its in-flight assignments
	// count as drops, and the remaining edges absorb the load. The listener
	// stays open, so a restarted or reconnecting agent can rejoin: its hello
	// is answered with a resync at the next slot boundary, the down flag is
	// cleared, and work is routed back to it. Without TolerateFailures, any
	// agent failure aborts the run.
	TolerateFailures bool
	// ArrivalSource overrides the planning arrivals: when set, slot t plans
	// against ArrivalSource(t) — e.g. the online serving layer's drained
	// request window — instead of the agents' phase-1 reports. The phase-1
	// barrier still runs (agents stay in step and protocol violations are
	// still policed); the reported counts just stop feeding the optimizer.
	// The returned matrix must be apps×edges and non-negative or the run
	// aborts.
	ArrivalSource func(t int) [][]int
	// PlanHook observes every accepted plan before its assignments are
	// dispatched — the serving layer installs its routing snapshot here.
	PlanHook func(t int, plan *edgesim.Plan)
}

// EdgeDownMarker is implemented by schedulers that can exclude failed edges
// from planning (core.Scheduler does).
type EdgeDownMarker interface {
	SetEdgeDown(k int, down bool)
}

// Report aggregates a distributed run; it mirrors edgesim.Results so the two
// executors can be compared directly.
type Report struct {
	Scheduler  string
	Completion []float64
	Loss       metrics.LossAccumulator
	Served     int
	Dropped    int
	// Failures counts per-application SLO violations (drops included).
	Failures int
	// FailedEdges lists edges whose agents died mid-run (TolerateFailures),
	// in first-failure order.
	FailedEdges []int
	// RejoinedEdges lists edges that failed and later re-registered, in
	// first-rejoin order. An edge can appear in both lists.
	RejoinedEdges []int
	// DownSlots[k] counts the slots edge k spent excluded from planning
	// (from failure detection to rejoin, or to the end of the run).
	DownSlots []int
	// ServedByEdge[k] counts the requests edge k reported completed.
	ServedByEdge []int
}

// FailureRate returns the paper's p%.
func (r *Report) FailureRate() float64 {
	if len(r.Completion) == 0 {
		return 0
	}
	return float64(r.Failures) / float64(len(r.Completion))
}

// Server coordinates edge agents through the slot protocol.
type Server struct {
	cfg ServerConfig
	ln  net.Listener
	// serialPhases disables the concurrent phase collection (test hook: the
	// fold order is by edge id either way, so the Report must not change).
	serialPhases bool
	// pending holds the listener and the conns mid-hello during
	// registration: Close must sever them, or the reading goroutine stays
	// parked until its SlotTimeout deadline.
	pending *connset.Set
}

// NewServer binds the listen address; call Run to serve.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Cluster == nil || len(cfg.Apps) == 0 || cfg.Scheduler == nil {
		return nil, fmt.Errorf("edgenet: server needs cluster, apps, and scheduler")
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("edgenet: non-positive slot count %d", cfg.Slots)
	}
	if cfg.SlotTimeout == 0 {
		cfg.SlotTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("edgenet: listen: %w", err)
	}
	return &Server{cfg: cfg, ln: ln, pending: connset.New(ln)}, nil
}

// Addr returns the bound listen address (for agents to dial).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close shuts the server down: it releases the listener and severs any
// connection whose registration hello is still in flight, so goroutines
// parked in a hello read unblock immediately instead of waiting out their
// deadline. Idempotent and safe to call concurrently with Run — repeated
// or post-Run calls return nil rather than a spurious "use of closed
// network connection".
func (s *Server) Close() error { return s.pending.Close() }

// rejoinReq is a validated mid-run hello parked by the accept loop until the
// slot loop folds it in at a boundary.
type rejoinReq struct {
	k        int
	c        *conn
	lastSlot int
	resume   bool
}

// Run accepts one agent per edge, then drives the slot protocol to
// completion and returns the aggregated report. It honors ctx cancellation
// between phases. After initial registration the listener keeps accepting,
// so agents that died can re-register mid-run (see TolerateFailures).
func (s *Server) Run(ctx context.Context) (*Report, error) {
	defer func() { _ = s.Close() }()
	K := s.cfg.Cluster.N()
	conns := make([]*conn, K)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
	}()

	if err := s.register(ctx, conns); err != nil {
		return nil, err
	}

	// Rejoin plumbing: a background accept loop keeps the listener alive so
	// dead agents can re-register; validated hellos are parked on rejoins
	// and folded in at the next slot boundary, keeping the protocol state
	// machine single-threaded.
	rejoins := make(chan rejoinReq, 4*K)
	acceptDone := make(chan struct{})
	go s.acceptRejoins(rejoins, acceptDone, K)
	defer func() {
		// Close the listener here (not just in Run's outer defer, which runs
		// too late) so the accept loop exits, then release parked conns.
		_ = s.Close()
		<-acceptDone
		for {
			select {
			case r := <-rejoins:
				r.c.close()
			default:
				return
			}
		}
	}()

	rep := &Report{
		Scheduler:    s.cfg.Scheduler.Name(),
		DownSlots:    make([]int, K),
		ServedByEdge: make([]int, K),
	}
	slotMS := s.cfg.Cluster.SlotMS()
	I := len(s.cfg.Apps)
	maxLoss := make([]float64, I)
	for i, app := range s.cfg.Apps {
		for _, m := range app.Models {
			if m.Loss > maxLoss[i] {
				maxLoss[i] = m.Loss
			}
		}
	}

	// downSince[k] is the slot at which edge k was last marked down (-1 =
	// up); it feeds Report.DownSlots.
	downSince := make([]int, K)
	for k := range downSince {
		downSince[k] = -1
	}

	// fail marks edge k dead; it returns the original error when failures
	// are not tolerated (or when no edge remains).
	fail := func(t, k int, cause error) error {
		if !s.cfg.TolerateFailures {
			return cause
		}
		if conns[k] != nil {
			conns[k].close()
			conns[k] = nil
		}
		if downSince[k] < 0 {
			downSince[k] = t
		}
		if marker, ok := s.cfg.Scheduler.(EdgeDownMarker); ok {
			marker.SetEdgeDown(k, true)
		}
		if !containsInt(rep.FailedEdges, k) {
			rep.FailedEdges = append(rep.FailedEdges, k)
		}
		alive := 0
		for _, c := range conns {
			if c != nil {
				alive++
			}
		}
		if alive == 0 {
			return fmt.Errorf("edgenet: every edge agent failed (last: %w)", cause)
		}
		return nil
	}

	for t := 0; t < s.cfg.Slots; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.admitRejoins(t, conns, rejoins, downSince, rep)
		// Phase 1: collect arrivals (dead edges contribute none — their
		// regions are offline with them). Receives run concurrently so one
		// stalled agent costs at most one SlotTimeout instead of delaying
		// every edge behind it; the fold below is in edge-id order.
		arrivals := make([][]int, I)
		for i := range arrivals {
			arrivals[i] = make([]int, K)
		}
		got := s.collectPhase(conns)
		for k := 0; k < K; k++ {
			if conns[k] == nil {
				continue
			}
			m, err := got[k].m, got[k].err
			switch {
			case err != nil:
				err = fmt.Errorf("edgenet: edge %d arrivals: %w", k, err)
			case m.Type != TypeArrivals || m.Slot != t:
				err = fmt.Errorf("edgenet: edge %d sent %q for slot %d, want arrivals for %d",
					k, m.Type, m.Slot, t)
			case len(m.Arrivals) != I:
				err = fmt.Errorf("edgenet: edge %d reported %d apps, want %d", k, len(m.Arrivals), I)
			case minInt(m.Arrivals) < 0:
				err = fmt.Errorf("edgenet: edge %d negative arrivals", k)
			}
			if err != nil {
				// A protocol violation from a live agent is handled exactly
				// like a dead connection: drop that edge, keep the run.
				if ferr := fail(t, k, err); ferr != nil {
					return nil, ferr
				}
				continue
			}
			for i, n := range m.Arrivals {
				arrivals[i][k] = n
			}
		}
		// Serving-path override: the barrier above still synchronized the
		// fleet and policed the protocol, but planning demand comes from the
		// serving layer's rolling window instead of the agents' reports.
		if s.cfg.ArrivalSource != nil {
			src := s.cfg.ArrivalSource(t)
			if err := validArrivals(src, I, K); err != nil {
				return nil, fmt.Errorf("edgenet: arrival source slot %d: %w", t, err)
			}
			arrivals = src
		}
		// Phase 2: decide.
		plan, err := s.cfg.Scheduler.Decide(t, arrivals)
		if err != nil {
			s.broadcast(conns, &Message{Type: TypeError, Err: err.Error()})
			return nil, fmt.Errorf("edgenet: decide slot %d: %w", t, err)
		}
		if s.cfg.PlanHook != nil {
			s.cfg.PlanHook(t, plan)
		}
		// Phase 3: push per-edge assignments (transfers are already netted
		// into the deployments, which is all an executor needs).
		slotLoss := 0.0
		dropAssignment := func(msg *Message) {
			for _, asg := range msg.Assignments {
				rep.Dropped += asg.Requests
				rep.Failures += asg.Requests
				slotLoss += maxLoss[asg.App] * float64(asg.Requests)
				for q := 0; q < asg.Requests; q++ {
					rep.Completion = append(rep.Completion, edgesim.DroppedPenaltyTau)
				}
			}
		}
		msgs := make([]*Message, K)
		for k := 0; k < K; k++ {
			msg := &Message{Type: TypeAssign, Slot: t, EdgeID: k, Dropped: make([]int, I), Final: t == s.cfg.Slots-1}
			for _, d := range plan.Deployments {
				if d.Edge != k {
					continue
				}
				msg.Assignments = append(msg.Assignments, Assignment{
					App: d.App, Version: d.Version, Requests: d.Requests,
					BatchSizes: d.BatchSizes,
				})
			}
			if plan.Dropped != nil {
				for i := 0; i < I; i++ {
					n := plan.Dropped[i][k]
					msg.Dropped[i] = n
					if n > 0 {
						rep.Dropped += n
						rep.Failures += n
						slotLoss += maxLoss[i] * float64(n)
						for q := 0; q < n; q++ {
							rep.Completion = append(rep.Completion, edgesim.DroppedPenaltyTau)
						}
					}
				}
			}
			msgs[k] = msg
			c := conns[k]
			if c == nil {
				// Edge already dead: its planned work is lost.
				dropAssignment(msg)
				continue
			}
			if err := c.send(msg); err != nil {
				if ferr := fail(t, k, fmt.Errorf("edgenet: edge %d assign: %w", k, err)); ferr != nil {
					return nil, ferr
				}
				dropAssignment(msg)
			}
		}
		// Phase 4: collect execution reports (concurrently, like phase 1).
		var fbs []edgesim.Feedback
		got = s.collectPhase(conns)
		for k := 0; k < K; k++ {
			if conns[k] == nil {
				continue
			}
			m, err := got[k].m, got[k].err
			switch {
			case err != nil:
				err = fmt.Errorf("edgenet: edge %d report: %w", k, err)
			case m.Type != TypeReport || m.Slot != t:
				err = fmt.Errorf("edgenet: edge %d sent %q for slot %d, want report for %d",
					k, m.Type, m.Slot, t)
			}
			if err != nil {
				if ferr := fail(t, k, err); ferr != nil {
					return nil, ferr
				}
				dropAssignment(msgs[k])
				continue
			}
			for q, ms := range m.CompletionMS {
				tau := ms / slotMS
				rep.Completion = append(rep.Completion, tau)
				slo := 1.0
				if q < len(m.CompletionApp) {
					if app := m.CompletionApp[q]; app >= 0 && app < I {
						slo = s.cfg.Apps[app].SLO()
					}
				}
				if tau > slo {
					rep.Failures++
				}
			}
			rep.Served += len(m.CompletionMS)
			rep.ServedByEdge[k] += len(m.CompletionMS)
			slotLoss += m.Loss
			fbs = append(fbs, m.Feedback...)
		}
		rep.Loss.Add(slotLoss)
		s.cfg.Scheduler.Observe(t, fbs)
	}
	for k, since := range downSince {
		if since >= 0 {
			rep.DownSlots[k] += s.cfg.Slots - since
		}
	}
	// No goodbye frame: every live agent already received its Final
	// assignment and has reported it, so closing the conns (Run's defer)
	// races with nothing.
	return rep, nil
}

// register accepts hellos until every edge has exactly one live agent. A
// malformed, version-mismatched, duplicate, or out-of-range hello rejects
// that connection with TypeError and keeps waiting — one misbehaving client
// must not abort the run for the correctly-behaving agents. Each accepted
// agent is acked with a resync at slot 0.
func (s *Server) register(ctx context.Context, conns []*conn) error {
	K := len(conns)
	deadline := time.Now().Add(s.cfg.SlotTimeout)
	if err := s.ln.(*net.TCPListener).SetDeadline(deadline); err != nil {
		return err
	}
	for registered := 0; registered < K; {
		if err := ctx.Err(); err != nil {
			return err
		}
		raw, err := s.ln.Accept()
		if err != nil {
			if s.pending.Closed() {
				return fmt.Errorf("edgenet: server closed during registration (have %d/%d agents)", registered, K)
			}
			return fmt.Errorf("edgenet: accept (have %d/%d agents): %w", registered, K, err)
		}
		// Track the conn for the duration of the hello read so an external
		// Close severs it instead of leaving this loop parked until the
		// read deadline.
		if !s.pending.Track(raw) {
			_ = raw.Close()
			return fmt.Errorf("edgenet: server closed during registration (have %d/%d agents)", registered, K)
		}
		c := &conn{raw: raw}
		_ = raw.SetReadDeadline(deadline)
		m, err := c.recv()
		s.pending.Untrack(raw)
		if err != nil || m.Type != TypeHello {
			c.close()
			continue
		}
		if reason := s.vetHello(m, K); reason != "" {
			_ = c.send(&Message{Type: TypeError, Err: reason})
			c.close()
			continue
		}
		if conns[m.EdgeID] != nil {
			_ = c.send(&Message{Type: TypeError, Err: fmt.Sprintf("duplicate edge id %d", m.EdgeID)})
			c.close()
			continue
		}
		// Ack with the starting slot; agents wait for this before sending
		// their first arrivals.
		if err := c.send(&Message{Type: TypeResync, EdgeID: m.EdgeID, Slot: 0}); err != nil {
			c.close()
			continue
		}
		_ = raw.SetReadDeadline(time.Time{})
		conns[m.EdgeID] = c
		registered++
	}
	return s.ln.(*net.TCPListener).SetDeadline(time.Time{})
}

// vetHello checks the fields of a hello message, returning a rejection
// reason ("" = acceptable). Liveness of the slot (duplicate live agents) is
// checked by the caller, which owns the conn table.
func (s *Server) vetHello(m *Message, K int) string {
	if m.Version != ProtocolVersion {
		return fmt.Sprintf("protocol version %d, want %d", m.Version, ProtocolVersion)
	}
	if m.EdgeID < 0 || m.EdgeID >= K {
		return fmt.Sprintf("edge id %d out of range [0,%d)", m.EdgeID, K)
	}
	return ""
}

// acceptRejoins keeps accepting connections after initial registration so a
// restarted or reconnecting agent can re-register mid-run. Hellos are
// validated here; admission (the duplicate check against the live conn
// table, SetEdgeDown(k, false), the resync reply) happens on the slot loop
// at the next boundary. Exits when the listener closes.
func (s *Server) acceptRejoins(ch chan<- rejoinReq, done chan<- struct{}, K int) {
	defer close(done)
	var wg sync.WaitGroup
	var mu sync.Mutex
	open := make(map[net.Conn]bool)
	for {
		raw, err := s.ln.Accept()
		if err != nil {
			break // listener closed: the run is over
		}
		mu.Lock()
		open[raw] = true
		mu.Unlock()
		wg.Add(1)
		go func(raw net.Conn) {
			defer wg.Done()
			s.vetRejoin(raw, ch, K)
			mu.Lock()
			delete(open, raw)
			mu.Unlock()
		}(raw)
	}
	mu.Lock()
	for c := range open {
		_ = c.Close() // interrupt in-flight hello reads so wg.Wait is prompt
	}
	mu.Unlock()
	wg.Wait()
}

// vetRejoin reads and validates one mid-run hello, parking the acceptable
// ones on ch for the slot loop to admit.
func (s *Server) vetRejoin(raw net.Conn, ch chan<- rejoinReq, K int) {
	c := &conn{raw: raw}
	_ = raw.SetReadDeadline(time.Now().Add(s.cfg.SlotTimeout))
	m, err := c.recv()
	if err != nil || m.Type != TypeHello {
		c.close()
		return
	}
	if reason := s.vetHello(m, K); reason != "" {
		_ = c.send(&Message{Type: TypeError, Err: reason})
		c.close()
		return
	}
	_ = raw.SetReadDeadline(time.Time{})
	select {
	case ch <- rejoinReq{k: m.EdgeID, c: c, lastSlot: m.LastSlot, resume: m.Resume}:
	default:
		_ = c.send(&Message{Type: TypeError, Err: "rejoin queue full"})
		c.close()
	}
}

// admitRejoins folds parked re-registrations into the conn table at a slot
// boundary: the down flag is cleared, downtime is charged, and the agent is
// resync'd to slot t so it re-enters the barrier in step. A rejoining edge
// starts from a clean slate — arrivals during its downtime were never
// reported and are not replayed. A rejoin for an edge whose previous
// connection still looks alive stays parked: a restarted agent routinely
// redials before the server has detected the old connection's death, and the
// next failed phase read settles which it was.
func (s *Server) admitRejoins(t int, conns []*conn, ch chan rejoinReq, downSince []int, rep *Report) {
	var pending []rejoinReq
	for draining := true; draining; {
		select {
		case r := <-ch:
			pending = append(pending, r)
		default:
			draining = false
		}
	}
	// Arrival order on the channel is wall-clock nondeterministic; admit in
	// edge-id order so the Report is stable given the same failure set.
	// Stable so duplicate rejoins by one edge keep a defined relative order.
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].k < pending[j].k })
	for _, r := range pending {
		if conns[r.k] != nil {
			select {
			case ch <- r: // revisit at the next boundary
			default:
				_ = r.c.send(&Message{Type: TypeError, Err: "rejoin queue full"})
				r.c.close()
			}
			continue
		}
		if err := r.c.send(&Message{Type: TypeResync, EdgeID: r.k, Slot: t}); err != nil {
			r.c.close()
			continue
		}
		conns[r.k] = r.c
		if downSince[r.k] >= 0 {
			rep.DownSlots[r.k] += t - downSince[r.k]
			downSince[r.k] = -1
		}
		if marker, ok := s.cfg.Scheduler.(EdgeDownMarker); ok {
			marker.SetEdgeDown(r.k, false)
		}
		if !containsInt(rep.RejoinedEdges, r.k) {
			rep.RejoinedEdges = append(rep.RejoinedEdges, r.k)
		}
	}
}

// phaseRecv is one edge's answer in a collection phase.
type phaseRecv struct {
	m   *Message
	err error
}

// collectPhase receives one message from every live edge, each under its own
// read deadline. The default is one goroutine per edge so worst-case phase
// latency is a single SlotTimeout rather than K of them (head-of-line
// blocking); results land in per-edge slots and the caller folds them in
// edge-id order, so concurrency never reaches the Report.
func (s *Server) collectPhase(conns []*conn) []phaseRecv {
	res := make([]phaseRecv, len(conns))
	recv := func(k int, c *conn) {
		_ = c.raw.SetReadDeadline(time.Now().Add(s.cfg.SlotTimeout))
		m, err := c.recv()
		res[k] = phaseRecv{m: m, err: err}
	}
	if s.serialPhases {
		for k, c := range conns {
			if c != nil {
				recv(k, c)
			}
		}
		return res
	}
	var wg sync.WaitGroup
	for k, c := range conns {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func(k int, c *conn) {
			defer wg.Done()
			recv(k, c)
		}(k, c)
	}
	wg.Wait()
	return res
}

func (s *Server) broadcast(conns []*conn, m *Message) {
	for _, c := range conns {
		if c != nil {
			_ = c.send(m)
		}
	}
}

// validArrivals checks an ArrivalSource matrix: apps×edges, non-negative.
func validArrivals(a [][]int, I, K int) error {
	if len(a) != I {
		return fmt.Errorf("want %d app rows, got %d", I, len(a))
	}
	for i := range a {
		if len(a[i]) != K {
			return fmt.Errorf("app %d: want %d edge cells, got %d", i, K, len(a[i]))
		}
		if minInt(a[i]) < 0 {
			return fmt.Errorf("app %d: negative arrivals", i)
		}
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func minInt(xs []int) int {
	m := 0
	for i, v := range xs {
		if i == 0 || v < m {
			m = v
		}
	}
	return m
}

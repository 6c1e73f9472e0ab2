package serve

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"repro/internal/edgesim"
	"repro/internal/metrics"
)

// Planner re-solves the slot optimizer over a rolling arrival window.
// window[i][k] aggregates the requests attributed to edge k for app i
// since the last re-optimization; windowNS is the window's virtual length.
// core.Scheduler implements Planner directly (see core's Replan: rate
// rescaling plus the cross-slot incumbent/memo reuse layer); NewSlotPlanner
// adapts any plain edgesim.Scheduler.
type Planner interface {
	Replan(window [][]int, windowNS int64) (*edgesim.Plan, error)
}

// NewSlotPlanner adapts an edgesim.Scheduler into a Planner by feeding each
// window as the next slot's arrivals, unscaled — adequate when the
// re-optimization cadence equals the slot length.
func NewSlotPlanner(s edgesim.Scheduler) Planner { return &slotPlanner{s: s} }

type slotPlanner struct {
	s edgesim.Scheduler
	t int
}

func (p *slotPlanner) Replan(window [][]int, _ int64) (*edgesim.Plan, error) {
	plan, err := p.s.Decide(p.t, window)
	if err != nil {
		return nil, err
	}
	p.t++
	return plan, nil
}

// Config assembles a serving loop.
type Config struct {
	// Apps and Edges fix the request shape: 0 ≤ App < Apps,
	// 0 ≤ Region < Edges.
	Apps  int
	Edges int
	// Planner re-solves over the rolling window. Required unless
	// ExternalPlans.
	Planner Planner
	// Admission shedding policy (nil = AlwaysAdmit).
	Admission AdmissionPolicy
	// Router picks the serving edge (nil = round-robin).
	Router Router
	// ReoptEveryNS is the re-optimization cadence on the virtual clock;
	// must be > 0 unless ExternalPlans. The in-process path replans
	// synchronously at cadence boundaries (deterministic); a daemon calls
	// Tick from a background goroutine to replan off the decision path.
	ReoptEveryNS int64
	// MaxStaleNS bounds snapshot staleness at any decision: a decision
	// that would read an older snapshot triggers a synchronous forced
	// re-optimization first, so the bound holds by construction.
	// 0 = default to 2×ReoptEveryNS; negative = unbounded. While an
	// asynchronous Tick solve is in flight the forced path stands down
	// and waits for it to land (the bound is hard on the replay path,
	// best-effort within one solve latency under a live daemon).
	MaxStaleNS int64
	// Log receives the canonical decision log, one line per request
	// (nil = discard). Call Flush before reading what was written.
	Log io.Writer
	// ExternalPlans: snapshots arrive only via AdoptPlan (the edgenet
	// slot barrier) and internal re-optimization is disabled; Planner,
	// ReoptEveryNS, and MaxStaleNS are ignored.
	ExternalPlans bool
	// Bootstrap seeds the first plan's arrival window (nil = one request
	// per (app, region), so every edge starts with real capacity instead
	// of rejecting until the first cadence fires).
	Bootstrap [][]int
}

// Loop is the online serving loop: Submit (or Replay) drives admission →
// routing → accounting one request at a time under a single decision lock,
// while snapshots swap atomically underneath. All methods are safe for
// concurrent use.
type Loop struct {
	cfg Config
	adm AdmissionPolicy
	rtr Router

	snap holder // readable without mu

	mu             sync.Mutex
	clockNS        int64
	seq            int64
	window         [][]int // arrivals attributed since last replan
	windowStartNS  int64
	lastDemand     [][]int // last non-empty window (quiet-period replan input)
	routed         []int64 // per-edge routed count under the current snapshot
	down           []bool
	up             []bool // scratch for routers
	nextReoptNS    int64
	replanInFlight bool
	stats          *metrics.ServeStats
	log            *bufio.Writer
	line           []byte // decision-log line buffer, reused by every decide
}

// NewLoop validates the configuration, solves the bootstrap plan (unless
// ExternalPlans), and returns a loop ready to serve at virtual time 0.
func NewLoop(cfg Config) (*Loop, error) {
	if cfg.Apps <= 0 || cfg.Edges <= 0 {
		return nil, fmt.Errorf("serve: need Apps > 0 and Edges > 0 (got %d, %d)", cfg.Apps, cfg.Edges)
	}
	if !cfg.ExternalPlans {
		if cfg.Planner == nil {
			return nil, fmt.Errorf("serve: Planner is required unless ExternalPlans")
		}
		if cfg.ReoptEveryNS <= 0 {
			return nil, fmt.Errorf("serve: ReoptEveryNS %d must be > 0", cfg.ReoptEveryNS)
		}
		if cfg.MaxStaleNS == 0 {
			cfg.MaxStaleNS = 2 * cfg.ReoptEveryNS
		}
	}
	l := &Loop{
		cfg:    cfg,
		adm:    cfg.Admission,
		rtr:    cfg.Router,
		window: zeroWindow(cfg.Apps, cfg.Edges),
		routed: make([]int64, cfg.Edges),
		down:   make([]bool, cfg.Edges),
		up:     make([]bool, cfg.Edges),
		stats:  metrics.NewServeStats(cfg.Edges),
	}
	if l.adm == nil {
		l.adm = AlwaysAdmit{}
	}
	if l.rtr == nil {
		l.rtr = &RoundRobin{}
	}
	if cfg.Log != nil {
		l.log = bufio.NewWriter(cfg.Log)
	}
	l.snap.swap(BuildSnapshot(0, 0, cfg.Edges, nil))
	if !cfg.ExternalPlans {
		boot := cfg.Bootstrap
		if boot == nil {
			boot = onesWindow(cfg.Apps, cfg.Edges)
		}
		if err := validWindow(boot, cfg.Apps, cfg.Edges); err != nil {
			return nil, fmt.Errorf("serve: bootstrap window: %w", err)
		}
		l.lastDemand = copyWindow(boot)
		if err := l.replanLocked(0, false); err != nil {
			return nil, fmt.Errorf("serve: bootstrap plan: %w", err)
		}
	}
	return l, nil
}

// Submit offers one request at virtual time req.ArriveNS and returns its
// decision. Decisions are made one at a time under the loop's lock, in
// call order; an error means the re-optimizer failed and the request was
// not decided.
func (l *Loop) Submit(req Request) (Decision, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decide(req)
}

// Replay drives the loop from a scripted request stream (ArriveNS must be
// non-decreasing) and returns the final counters.
func (l *Loop) Replay(script []Request) (*metrics.ServeStats, error) {
	for i := range script {
		if i > 0 && script[i].ArriveNS < script[i-1].ArriveNS {
			return nil, fmt.Errorf("serve: replay script out of order at %d: %d < %d",
				i, script[i].ArriveNS, script[i-1].ArriveNS)
		}
		if _, err := l.Submit(script[i]); err != nil {
			return nil, fmt.Errorf("serve: replay request %d: %w", i, err)
		}
	}
	if err := l.Flush(); err != nil {
		return nil, err
	}
	return l.Stats(), nil
}

func (l *Loop) decide(req Request) (Decision, error) {
	l.stats.Submitted++
	if req.ArriveNS > l.clockNS {
		l.clockNS = req.ArriveNS
	}
	now := l.clockNS
	if !l.cfg.ExternalPlans && !l.replanInFlight {
		if now >= l.nextReoptNS {
			if err := l.replanLocked(now, false); err != nil {
				return Decision{}, err
			}
		}
		if l.cfg.MaxStaleNS > 0 && l.snap.load().StaleNS(now) > l.cfg.MaxStaleNS {
			if err := l.replanLocked(now, true); err != nil {
				return Decision{}, err
			}
		}
	}
	snap := l.snap.load()
	d := Decision{
		Seq: l.seq, Req: req, Edge: -1,
		SnapshotID: snap.ID, StaleNS: snap.StaleNS(now),
	}
	l.seq++
	switch {
	case req.App < 0 || req.App >= l.cfg.Apps || req.Region < 0 || req.Region >= l.cfg.Edges:
		d.Reason = ReasonBadRequest
	default:
		if ok, reason := l.adm.Admit(now, req); !ok {
			d.Reason = reason
		} else {
			for k := range l.up {
				l.up[k] = !l.down[k]
			}
			edge, reason := l.rtr.Route(req, snap, l.up, l.routed)
			if edge < 0 {
				// Routing-rejected demand still informs the next plan:
				// attribute it to the arrival region so the optimizer
				// learns about unserved load. Admission-rejected
				// requests were shed before entering and do not.
				d.Reason = reason
				l.window[req.App][req.Region]++
			} else {
				d.Admitted = true
				d.Edge = edge
				l.window[req.App][edge]++
				l.routed[edge]++
			}
		}
	}
	if d.Admitted {
		l.stats.NoteAdmit(d.Edge, d.StaleNS)
	} else {
		l.stats.NoteReject(d.Reason, d.StaleNS)
	}
	if l.log != nil {
		l.line = append(d.AppendLog(l.line[:0]), '\n')
		_, _ = l.log.Write(l.line) // a write error sticks in the bufio.Writer; Flush reports it
	}
	return d, nil
}

// replanLocked re-solves synchronously with mu held: the replay path's
// deterministic cadence and the forced staleness path. A quiet window (all
// zeros) re-solves against the last non-empty demand so capacity persists
// through idle periods while the bandwidth/tuner state still advances.
func (l *Loop) replanLocked(nowNS int64, forced bool) error {
	in, windowNS := l.takeWindowLocked(nowNS)
	plan, err := l.cfg.Planner.Replan(in, windowNS)
	if err != nil {
		l.stats.ReplanErrors++
		return err
	}
	l.adoptLocked(nowNS, plan, forced)
	return nil
}

// takeWindowLocked consumes the rolling window (resetting it) and returns
// the replan input and the window's virtual length.
func (l *Loop) takeWindowLocked(nowNS int64) ([][]int, int64) {
	in := l.window
	if windowZero(in) {
		in = l.lastDemand
	} else {
		l.lastDemand = in
	}
	windowNS := nowNS - l.windowStartNS
	if windowNS <= 0 {
		windowNS = l.cfg.ReoptEveryNS
	}
	l.window = zeroWindow(l.cfg.Apps, l.cfg.Edges)
	l.windowStartNS = nowNS
	l.nextReoptNS = nowNS + l.cfg.ReoptEveryNS
	return in, windowNS
}

// adoptLocked installs a freshly solved plan as the new snapshot.
func (l *Loop) adoptLocked(nowNS int64, plan *edgesim.Plan, forced bool) {
	id := l.snap.load().ID + 1
	l.snap.swap(BuildSnapshot(id, nowNS, l.cfg.Edges, plan))
	for k := range l.routed {
		l.routed[k] = 0
	}
	l.stats.NoteReplan(forced)
}

// Tick advances the virtual clock and runs any due re-optimization with
// the decision lock RELEASED during the solve — the daemon's background
// re-optimizer calls this on its cadence so admissions never wait on solve
// latency and snapshots stay fresh through quiet periods. Requests
// arriving mid-solve accumulate into the next window. No-op under
// ExternalPlans.
func (l *Loop) Tick(nowNS int64) error {
	l.mu.Lock()
	if nowNS > l.clockNS {
		l.clockNS = nowNS
	}
	if l.cfg.ExternalPlans || l.replanInFlight || l.clockNS < l.nextReoptNS {
		l.mu.Unlock()
		return nil
	}
	l.replanInFlight = true
	now := l.clockNS
	in, windowNS := l.takeWindowLocked(now)
	l.mu.Unlock()

	plan, err := l.cfg.Planner.Replan(in, windowNS) // expensive; unlocked

	l.mu.Lock()
	l.replanInFlight = false
	if err != nil {
		l.stats.ReplanErrors++
	} else {
		l.adoptLocked(now, plan, false)
	}
	l.mu.Unlock()
	return err
}

// AdoptPlan installs an externally computed plan (the edgenet slot
// barrier's Decide output) as the new snapshot at virtual time nowNS.
func (l *Loop) AdoptPlan(nowNS int64, plan *edgesim.Plan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if nowNS > l.clockNS {
		l.clockNS = nowNS
	}
	l.adoptLocked(nowNS, plan, false)
}

// DrainWindow returns and resets the rolling arrival window — the edgenet
// serving path feeds this to the slot barrier as its ArrivalSource.
func (l *Loop) DrainWindow() [][]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.window
	l.window = zeroWindow(l.cfg.Apps, l.cfg.Edges)
	if !windowZero(w) {
		l.lastDemand = w
	}
	return copyWindow(w)
}

// SetEdgeDown marks edge k dead (down=true) or recovered; routers skip
// dead edges immediately. The planner's own down-marking (core
// SetEdgeDown) is the caller's responsibility — the loop only steers.
func (l *Loop) SetEdgeDown(k int, down bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k >= 0 && k < len(l.down) {
		l.down[k] = down
	}
}

// Snapshot returns the current routing snapshot (lock-free).
func (l *Loop) Snapshot() *Snapshot { return l.snap.load() }

// Stats returns a consistent copy of the serving counters.
func (l *Loop) Stats() *metrics.ServeStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats.Clone()
}

// Flush drains the buffered decision log to the configured writer.
func (l *Loop) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	return l.log.Flush()
}

func zeroWindow(apps, edges int) [][]int {
	w := make([][]int, apps)
	cells := make([]int, apps*edges)
	for i := range w {
		w[i] = cells[i*edges : (i+1)*edges : (i+1)*edges]
	}
	return w
}

func onesWindow(apps, edges int) [][]int {
	w := zeroWindow(apps, edges)
	for i := range w {
		for k := range w[i] {
			w[i][k] = 1
		}
	}
	return w
}

func copyWindow(w [][]int) [][]int {
	out := make([][]int, len(w))
	for i := range w {
		out[i] = append([]int(nil), w[i]...)
	}
	return out
}

func windowZero(w [][]int) bool {
	for i := range w {
		for _, v := range w[i] {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

func validWindow(w [][]int, apps, edges int) error {
	if len(w) != apps {
		return fmt.Errorf("want %d app rows, got %d", apps, len(w))
	}
	for i := range w {
		if len(w[i]) != edges {
			return fmt.Errorf("app %d: want %d edge cells, got %d", i, edges, len(w[i]))
		}
		for k, v := range w[i] {
			if v < 0 {
				return fmt.Errorf("app %d edge %d: negative count %d", i, k, v)
			}
		}
	}
	return nil
}

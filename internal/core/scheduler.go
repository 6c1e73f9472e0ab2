package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/edgesim"
	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/miqp"
	"repro/internal/models"
	"repro/internal/par"
)

// SolveMode selects the per-slot solver strategy.
type SolveMode int

const (
	// SolveModeDecomposed runs the stage-1 redistribution LP followed by
	// per-edge exact MILPs — the scalable default.
	SolveModeDecomposed SolveMode = iota
	// SolveModeJoint solves the paper's full per-slot integer program over
	// all edges at once (exact, but only practical at small scale).
	SolveModeJoint
)

// String implements fmt.Stringer.
func (m SolveMode) String() string {
	switch m {
	case SolveModeDecomposed:
		return "decomposed"
	case SolveModeJoint:
		return "joint"
	default:
		return fmt.Sprintf("SolveMode(%d)", int(m))
	}
}

// Config assembles a BIRP-family scheduler.
type Config struct {
	Cluster *cluster.Cluster
	Apps    []*models.Application
	// Provider supplies TIR parameters. Nil means a fresh OnlineTuner with
	// the paper's chosen presets ε1 = 0.04, ε2 = 0.07 (§5.3).
	Provider ParamsProvider
	// DisplayName overrides the reported scheduler name.
	DisplayName string
	// Mode selects the batch execution style (BIRP: merged).
	Mode BatchMode
	// FixedB0 is required for ModeFixed (the MAX baseline).
	FixedB0 int
	// SolveMode selects joint vs decomposed solving.
	SolveMode SolveMode
	// MaxBatch caps merged batches (0 = DefaultMaxBatch).
	MaxBatch int
	// KneeCap enforces the paper's literal b ≤ β̂ batch cap (see
	// EdgeProblem.KneeCap); off by default.
	KneeCap bool
	// Mem selects the Eq. 6 memory interpretation (default MemTimeSliced).
	Mem MemModel
	// DropPenalty and OverflowPenaltyPerMS override the objective penalties
	// (0 = the package defaults).
	DropPenalty          float64
	OverflowPenaltyPerMS float64
	// SingleVersion restricts each application to one model version per edge
	// (the OAEI baseline's "model selection" granularity).
	SingleVersion bool
	// Preload enables predictive model pre-shipping: spare slot bandwidth
	// ships better model versions to edges whose EWMA-predicted demand
	// warrants them, so peaks find the models already resident instead of
	// competing with request forwarding for bandwidth (the workload-
	// prediction direction of the paper's related work [7]).
	Preload bool
	// PreloadMinDemand is the predicted per-(app, edge) demand below which
	// nothing is pre-shipped (0 = 3 requests/slot).
	PreloadMinDemand float64
	// Redist tunes stage 1 (decomposed mode only).
	Redist RedistOptions
	// SolveNodes bounds branch-and-bound effort per program (0 = default).
	SolveNodes int
	// GammaMS predicts single-request latency; nil uses the device model
	// (the paper plugs in the nn-Meter-style predictor here).
	GammaMS func(k ModelKey) float64
	// RoundSeed seeds the randomized rounding when Redist.RoundRNG is wanted
	// but not supplied directly.
	RoundSeed int64
	// Workers bounds the solve parallelism: concurrent per-edge MILPs in the
	// decomposed path and concurrent branch-and-bound relaxations inside each
	// program. Values ≤ 0 mean one worker per CPU (runtime.GOMAXPROCS(0)).
	// Plans are bit-identical for every worker count — the fan-out gathers
	// results in edge order and the B&B search is batch-synchronous — so
	// Workers only changes wall-clock time.
	Workers int
	// DisableSlotReuse turns off the cross-slot temporal acceleration layer
	// (incumbent seeding from the previous slot's plan and plan memoization,
	// which also serves an edge whose problem is unchanged since its last
	// plan) and restores the cold per-slot path, for equivalence testing and
	// A/B measurement. Reuse only
	// changes which certified incumbent each solve starts from, so reuse-on
	// and reuse-off plans agree within the solver's 0.5% gap tolerance;
	// byte-identity across Workers values holds in both settings. Decomposed
	// mode only — the joint solver always runs cold.
	DisableSlotReuse bool
	// Domains > 0 partitions the fleet into exactly that many collaboration
	// domains and enables hierarchical scheduling: each domain runs its own
	// redistribution LP + per-edge MILPs (concurrently across domains), and a
	// thin top-level coordinator settles cross-domain workload flow with a
	// deterministic greedy dual-adjustment pass over the Eq. 3 conservation
	// constraint before the domains solve. Decomposed mode only. See
	// hierarchy.go for the determinism argument; plans stay byte-identical
	// across Workers values in hierarchical mode too.
	Domains int
	// DomainSize bounds domain sizes instead of fixing their count: the fleet
	// splits into ⌈K/DomainSize⌉ domains. Either knob enables hierarchical
	// scheduling; when both are zero the scheduler is monolithic (the
	// historical behavior). With one resulting domain the hierarchical path
	// reduces exactly to the monolithic one.
	DomainSize int
	// CoordRounds bounds the coordinator's cross-domain balancing rounds per
	// slot (0 = 2). Each round pairs the most- and least-loaded domains and
	// moves workload until their congestion estimates meet or bandwidth runs
	// out; more rounds refine the balance at O(K) cost each.
	CoordRounds int
}

// Scheduler is the BIRP-family per-slot decision maker. BIRP itself, BIRP-OFF
// (offline provider), and MAX (fixed B0) are all configurations of this type;
// OAEI lives in package baseline with its own latency learner.
type Scheduler struct {
	cfg      Config
	provider ParamsProvider
	name     string
	prev     []map[[2]int]bool // per edge: models resident from last slot
	gamma    func(k ModelKey) float64
	down     []bool      // edges currently marked failed (SetEdgeDown)
	ewma     [][]float64 // per (app, edge) demand estimate for preloading
	solver   miqp.Stats  // cumulative MIQP counters across all Decide calls
	// Cross-slot temporal reuse state (see reuse.go); nil when
	// Config.DisableSlotReuse is set.
	reuse []*edgeReuse
	// pool and redistScratch keep the LP scratch arenas alive across slots —
	// unlike sync.Pool storage, they survive GC cycles, so the steady-state
	// slot loop allocates almost nothing for solver workspaces.
	pool          *miqp.ScratchPool
	redistScratch *lp.Scratch
	// edgeScr holds one SolveEdge model-build scratch per fan-out worker
	// (indexed by the par.ForEach worker id, so there is no contention);
	// grown lazily.
	edgeScr []*edgeScratch
	// Slot-loop buffers reused across Decide calls (decideDecomposed):
	// per-edge assignments, fingerprints, workload rows (cut from one
	// backing slab), ship budgets, parameter snapshots, and the pending
	// solve list. All are overwritten at the start of each slot; nothing
	// returned to the caller aliases them.
	slotAsgs   []*EdgeAssignment
	slotFP     []uint64
	slotWS     [][]int
	slotWSBack []int
	slotShips  []float64
	slotFPs    []uint64
	slotSnaps  []paramSnapshot
	slotSolve  []int
	// hier is the hierarchical decomposition state (domain partition,
	// per-domain sub-schedulers, coordinator caches); nil in monolithic mode.
	hier *hierState
	// serveT counts windowed re-solves (Replan in window.go): the online
	// serving layer has no simulator slot index, so Replan synthesizes a
	// monotone one to keep the provider ticking and the reuse layer keyed.
	serveT int
	// bwReserved[k] is forwarding bandwidth the parent coordinator already
	// spent at edge k this slot (cross-domain transfers charge both ends).
	// Stage 1, the ship budget, and preloading all plan against the remaining
	// budget. Nil at the top level; set per slot on domain sub-schedulers.
	bwReserved []float64
}

// reservedMB returns the coordinator's bandwidth spend at edge k this slot.
func (s *Scheduler) reservedMB(k int) float64 {
	if s.bwReserved == nil {
		return 0
	}
	return s.bwReserved[k]
}

// New builds a scheduler. The zero Config value is invalid; Cluster and Apps
// are required.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Cluster == nil || len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("core: scheduler needs a cluster and applications")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == ModeFixed && cfg.FixedB0 <= 0 {
		return nil, fmt.Errorf("core: ModeFixed requires FixedB0 > 0")
	}
	s := &Scheduler{cfg: cfg, provider: cfg.Provider}
	if s.provider == nil {
		s.provider = NewOnlineTuner(0.04, 0.07)
	}
	s.name = cfg.DisplayName
	if s.name == "" {
		s.name = "BIRP"
	}
	s.gamma = cfg.GammaMS
	if s.gamma == nil {
		s.gamma = func(k ModelKey) float64 {
			m := cfg.Apps[k.App].Models[k.Version]
			return cfg.Cluster.Edges[k.Edge].Device.SingleLatencyMS(m.Profile)
		}
	}
	if cfg.Redist.RoundRNG == nil && cfg.RoundSeed != 0 {
		s.cfg.Redist.RoundRNG = rand.New(rand.NewSource(cfg.RoundSeed))
	}
	// Stage 1 and stage 2 must agree on the batch-cap and memory regimes.
	s.cfg.Redist.KneeCap = cfg.KneeCap
	s.cfg.Redist.MaxBatch = cfg.MaxBatch
	s.cfg.Redist.Mem = cfg.Mem
	s.reset()
	if cfg.Domains > 0 || cfg.DomainSize > 0 {
		if cfg.SolveMode != SolveModeDecomposed {
			return nil, fmt.Errorf("core: hierarchical scheduling requires SolveModeDecomposed")
		}
		h, err := newHierState(s)
		if err != nil {
			return nil, err
		}
		s.hier = h
	}
	return s, nil
}

func (s *Scheduler) reset() {
	s.prev = make([]map[[2]int]bool, s.cfg.Cluster.N())
	for k := range s.prev {
		s.prev[k] = map[[2]int]bool{}
	}
	s.down = make([]bool, s.cfg.Cluster.N())
	s.ewma = make([][]float64, len(s.cfg.Apps))
	for i := range s.ewma {
		s.ewma[i] = make([]float64, s.cfg.Cluster.N())
	}
	s.reuse = nil
	if !s.cfg.DisableSlotReuse {
		s.reuse = make([]*edgeReuse, s.cfg.Cluster.N())
		for k := range s.reuse {
			s.reuse[k] = &edgeReuse{}
		}
	}
	s.pool = miqp.NewScratchPool()
	s.redistScratch = lp.NewScratch()
	s.edgeScr = nil
}

// edgeScratchFor returns the per-worker SolveEdge scratch, growing the table
// on first use. Callers are the sequential setup of a fan-out (never the
// workers themselves), so no locking is needed.
func (s *Scheduler) edgeScratchFor(w int) *edgeScratch {
	for len(s.edgeScr) <= w {
		s.edgeScr = append(s.edgeScr, &edgeScratch{b: miqp.NewBuilder()})
	}
	return s.edgeScr[w]
}

// SetEdgeDown marks an edge failed (true) or recovered (false). Failed edges
// receive no redistributed workload and no deployments; the distributed
// prototype calls this when an agent's connection dies so the remaining
// edges absorb the load.
func (s *Scheduler) SetEdgeDown(k int, down bool) {
	if k >= 0 && k < len(s.down) {
		s.down[k] = down
		if s.hier != nil {
			s.hier.subs[s.hier.domainOf[k]].SetEdgeDown(s.hier.localOf[k], down)
		}
	}
}

// Name implements edgesim.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// SolverStats returns the cumulative MIQP solver counters across every Decide
// call so far (fresh solves only; cached per-edge assignments are not
// recounted). The experiment runners surface this through birpbench
// -solverstats.
func (s *Scheduler) SolverStats() miqp.Stats { return s.solver }

// Provider exposes the TIR parameter provider (tests, diagnostics).
func (s *Scheduler) Provider() ParamsProvider { return s.provider }

// Decide implements edgesim.Scheduler.
func (s *Scheduler) Decide(t int, arrivals [][]int) (*edgesim.Plan, error) {
	if len(arrivals) != len(s.cfg.Apps) {
		return nil, fmt.Errorf("core: arrivals for %d apps, want %d", len(arrivals), len(s.cfg.Apps))
	}
	for i, row := range arrivals {
		if len(row) != s.cfg.Cluster.N() {
			return nil, fmt.Errorf("core: arrivals row %d has %d edges, want %d", i, len(row), s.cfg.Cluster.N())
		}
		for k, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("core: negative arrivals at (%d, %d)", i, k)
			}
		}
	}
	s.provider.Tick()
	if s.cfg.SolveMode == SolveModeJoint {
		return s.decideJoint(t, arrivals)
	}
	if s.hier != nil {
		return s.decideHierarchical(t, arrivals)
	}
	return s.decideDecomposed(t, arrivals)
}

// repairAttempts bounds the drop-repair loop of the decomposed solver.
const repairAttempts = 3

func (s *Scheduler) decideDecomposed(t int, arrivals [][]int) (*edgesim.Plan, error) {
	c := s.cfg.Cluster
	I := len(s.cfg.Apps)
	K := c.N()
	bwFrac := orDefault(s.cfg.Redist.BwFrac, 0.7)

	redistOpts := s.cfg.Redist
	redistOpts.DownEdges = s.down
	redistOpts.Scratch = s.redistScratch
	redistOpts.ReservedMB = s.bwReserved
	red, err := Redistribute(c, s.cfg.Apps, arrivals,
		s.provider.Params, s.gamma, t, redistOpts)
	if err != nil {
		return nil, err
	}

	// Stage 2 with drop repair: if an edge must drop requests (batch caps,
	// model-shipping budget, memory), move them to edges with compute
	// headroom and re-solve. The joint solver handles this coupling
	// natively; this loop recovers most of it at a fraction of the cost.
	//
	// The per-edge solves are independent, so each repair round fans them out
	// over a bounded worker pool and gathers results in edge order — the plan
	// is bit-identical to the serial path. SolveEdge is deterministic in its
	// inputs, which are summarized per edge into a fingerprint (reuse.go):
	// edges whose fingerprint is unchanged within the slot keep their
	// assignment, and — when cross-slot reuse is on — edges whose fingerprint
	// matches a memoized problem (the previous slot's included) adopt the
	// cached plan fragment without solving at all.
	// Cap the fan-out at the schedulable CPUs: an oversubscribed pool pays
	// goroutine and merge overhead without any concurrency (plans are
	// pool-width independent, so the cap cannot change results).
	workers := par.CapWorkers(s.cfg.Workers)
	if cap(s.slotAsgs) < K {
		s.slotAsgs = make([]*EdgeAssignment, K)
		s.slotFP = make([]uint64, K)
		s.slotWS = make([][]int, K)
		s.slotShips = make([]float64, K)
		s.slotFPs = make([]uint64, K)
		s.slotSnaps = make([]paramSnapshot, K)
		s.slotSolve = make([]int, 0, K)
	}
	if cap(s.slotWSBack) < K*I {
		s.slotWSBack = make([]int, K*I)
	}
	asgs := s.slotAsgs[:K]
	for k := range asgs {
		asgs[k] = nil // a nil entry means "not yet assigned this slot"
	}
	curFP := s.slotFP[:K] // fingerprint behind asgs[k] (valid when non-nil)
	ws := s.slotWS[:K]
	ships := s.slotShips[:K]
	fps := s.slotFPs[:K]
	snaps := s.slotSnaps[:K]
	solve0 := s.slotSolve[:0]
	var plan *edgesim.Plan
	var slotSolver miqp.Stats // fresh solves only, accumulated across repairs
	for attempt := 0; ; attempt++ {
		// Serial pre-pass: compute workloads, ship budgets, parameter
		// snapshots (the online provider materializes per-key tuner state
		// lazily, so first reads mutate it and must not race) and the problem
		// fingerprints; then satisfy whatever the caches can. All reuse-state
		// reads and writes happen here or in the edge-order gather below,
		// never inside the fan-out.
		solve := solve0[:0]
		for k := 0; k < K; k++ {
			w := s.slotWSBack[k*I : (k+1)*I : (k+1)*I]
			for i := 0; i < I; i++ {
				w[i] = red.Alloc[i][k]
			}
			ws[k] = w
			if s.down[k] {
				// A failed edge cannot execute: whatever rounding left here
				// is dropped (stage 1 already steers flow away), and its
				// carried solver state would describe a world that no longer
				// exists — clear it so a recovered edge re-solves cold.
				asgs[k] = &EdgeAssignment{Dropped: w, PredictedMS: c.SlotMS() * 100}
				if s.reuse != nil {
					s.reuse[k].clear()
				}
				continue
			}
			// Stage 1 reserved (1 − bwFrac) of the bandwidth for shipping;
			// whatever forwarding left unspent is released to shipping too.
			// Cross-domain transfers the coordinator already booked come off
			// the top — that bandwidth is spent before this solver plans.
			ship := c.BandwidthMBAt(t, k) - red.ForwardMB[k] - s.reservedMB(k)
			if ship < 0 {
				ship = 0
			}
			ships[k] = ship
			s.snapshotParams(k, w, &snaps[k])
			fps[k] = s.fingerprintEdge(k, w, ship, &snaps[k])
			if asgs[k] != nil && fps[k] == curFP[k] {
				continue // unchanged within this slot
			}
			if ru := reuseFor(s.reuse, k); ru != nil {
				if hit := ru.lookup(fps[k]); hit != nil {
					asgs[k] = cloneAssignment(hit)
					curFP[k] = fps[k]
					slotSolver.MemoHits++
					continue
				}
			}
			solve = append(solve, k)
		}
		// Two-level split of the worker budget: with more pending edges than
		// workers each MILP runs serially and the fan-out is K-wide; with
		// fewer (small domains, late repair rounds, heavy cache hits) the
		// leftover workers parallelize the branch & bound inside each MILP
		// instead of idling.
		outer, inner := par.TwoLevel(workers, len(solve))
		if outer > 0 {
			s.edgeScratchFor(outer - 1) // pre-grow before the workers race
		}
		if err := par.ForEach(outer, len(solve), func(w, idx int) error {
			k := solve[idx]
			snap := &snaps[k]
			ep := &EdgeProblem{
				Edge: c.Edges[k], EdgeIdx: k, Apps: s.cfg.Apps, Workload: ws[k],
				Params:               snap.params,
				GammaMS:              snap.gammaAt,
				SlotMS:               c.SlotMS(),
				ShipBudgetMB:         ships[k],
				PrevDeployed:         s.prev[k],
				Mode:                 s.cfg.Mode,
				FixedB0:              s.cfg.FixedB0,
				MaxBatch:             s.cfg.MaxBatch,
				Mem:                  s.cfg.Mem,
				KneeCap:              s.cfg.KneeCap,
				SolveNodes:           s.cfg.SolveNodes,
				DropPenalty:          s.cfg.DropPenalty,
				OverflowPenaltyPerMS: s.cfg.OverflowPenaltyPerMS,
				SingleVersion:        s.cfg.SingleVersion,
				Workers:              inner(idx),
				Pool:                 s.pool,
				scratch:              s.edgeScr[w],
			}
			if ru := reuseFor(s.reuse, k); ru != nil && ru.cur != nil {
				// Temporal warm start: the previous plan seeds the incumbent
				// (after repair). Read-only here; updates happen in the
				// sequential gather.
				ep.Seed = ru.cur
			}
			asg, err := SolveEdge(ep)
			if err != nil {
				return err
			}
			asgs[k] = asg
			return nil
		}); err != nil {
			return nil, err
		}
		// Gather in edge order so the assembled plan never depends on solve
		// completion order. Solver counters and reuse-state updates are
		// applied in the same order, so the aggregate — and every future
		// slot's seeds — are worker-count independent too.
		for _, k := range solve {
			slotSolver.Add(asgs[k].Solver)
			curFP[k] = fps[k]
			if ru := reuseFor(s.reuse, k); ru != nil {
				ru.noteFresh(fps[k], asgs[k])
			}
		}
		plan = &edgesim.Plan{Transfers: red.Transfers}
		plan.Dropped = make([][]int, I)
		for i := range plan.Dropped {
			plan.Dropped[i] = make([]int, K)
		}
		totalDrops := 0
		for k := 0; k < K; k++ {
			asg := asgs[k]
			plan.Deployments = append(plan.Deployments, asg.Deployments...)
			for i := 0; i < I; i++ {
				plan.Dropped[i][k] = asg.Dropped[i]
				totalDrops += asg.Dropped[i]
			}
		}
		if totalDrops == 0 || attempt >= repairAttempts-1 {
			break
		}
		moved := s.moveDrops(red.Alloc, plan.Dropped, asgs)
		if !moved {
			break
		}
		red = RealizeAllocation(c, s.cfg.Apps, arrivals, red.Alloc, t, bwFrac, s.bwReserved)
	}
	plan.Solver = &slotSolver
	s.solver.Add(slotSolver)
	s.maybePreload(t, arrivals, plan)
	s.noteDeployments(plan)
	return plan, nil
}

// paramSnapshot holds per-edge TIR parameters and γ predictions captured
// before the per-edge fan-out, so worker goroutines never touch the (lazily
// materializing) provider or a caller-supplied GammaMS func concurrently.
// Snapshots are pooled per edge slot (Scheduler.slotSnaps): rows of apps with
// zero workload may hold stale values from an earlier slot, and every reader
// (fingerprintEdge, SolveEdge via params/gammaAt) touches only apps with
// positive workload.
type paramSnapshot struct {
	par   [][]bandit.TIRParams // [app][version]; valid only where workload > 0
	gamma [][]float64
}

func (ps *paramSnapshot) params(i, j int) bandit.TIRParams { return ps.par[i][j] }
func (ps *paramSnapshot) gammaAt(i, j int) float64         { return ps.gamma[i][j] }

// snapshotParams captures the TIR/γ values edge k's solve will read, touching
// exactly the keys the serial path would (apps with positive workload),
// filling ps in place (allocation-free once its rows have grown).
func (s *Scheduler) snapshotParams(k int, w []int, ps *paramSnapshot) {
	I := len(s.cfg.Apps)
	if cap(ps.par) < I {
		ps.par = make([][]bandit.TIRParams, I)
		ps.gamma = make([][]float64, I)
	}
	ps.par = ps.par[:I]
	ps.gamma = ps.gamma[:I]
	for i, app := range s.cfg.Apps {
		if w[i] <= 0 {
			continue
		}
		nm := len(app.Models)
		if cap(ps.par[i]) < nm {
			ps.par[i] = make([]bandit.TIRParams, nm)
			ps.gamma[i] = make([]float64, nm)
		}
		ps.par[i] = ps.par[i][:nm]
		ps.gamma[i] = ps.gamma[i][:nm]
		for j := range app.Models {
			key := ModelKey{Edge: k, App: i, Version: j}
			ps.par[i][j] = s.provider.Params(key)
			ps.gamma[i][j] = s.gamma(key)
		}
	}
}

// moveDrops reassigns dropped requests to the edges with the most compute
// headroom. It mutates alloc in place and reports whether anything moved.
func (s *Scheduler) moveDrops(alloc [][]int, dropped [][]int, asgs []*EdgeAssignment) bool {
	K := s.cfg.Cluster.N()
	slotMS := s.cfg.Cluster.SlotMS()
	headroom := make([]float64, K)
	for k := 0; k < K; k++ {
		headroom[k] = slotMS - asgs[k].PredictedMS
	}
	moved := false
	for i := range dropped {
		for k := 0; k < K; k++ {
			n := dropped[i][k]
			if n <= 0 {
				continue
			}
			// Candidate targets: other edges, most headroom first.
			order := argsortDesc(headroom)
			for _, k2 := range order {
				if n == 0 {
					break
				}
				if k2 == k || headroom[k2] < 0.1*slotMS {
					continue
				}
				// A rough per-request cost estimate limits how much one
				// target absorbs this round.
				g := s.gamma(ModelKey{Edge: k2, App: i, Version: 0})
				fit := int(headroom[k2] / math.Max(g, 1))
				if fit <= 0 {
					continue
				}
				if fit > n {
					fit = n
				}
				alloc[i][k] -= fit
				alloc[i][k2] += fit
				headroom[k2] -= float64(fit) * g
				n -= fit
				moved = true
			}
		}
	}
	return moved
}

func (s *Scheduler) noteDeployments(plan *edgesim.Plan) {
	for k := range s.prev {
		// Clear in place: the maps live for the scheduler's lifetime and
		// deleting every key is iteration-order independent.
		//birplint:ordered
		for key := range s.prev[k] {
			delete(s.prev[k], key)
		}
	}
	for _, d := range plan.Deployments {
		s.prev[d.Edge][[2]int{d.App, d.Version}] = true
	}
	for _, pl := range plan.Preloads {
		s.prev[pl.Edge][[2]int{pl.App, pl.Version}] = true
	}
}

// preloadAlpha is the EWMA smoothing factor for demand prediction.
const preloadAlpha = 0.3

// maybePreload spends leftover slot bandwidth shipping better model versions
// to edges whose predicted demand justifies them. It appends to
// plan.Preloads; residency is recorded by noteDeployments.
func (s *Scheduler) maybePreload(t int, arrivals [][]int, plan *edgesim.Plan) {
	// Update demand estimates first (predict t+1 from everything ≤ t).
	for i := range arrivals {
		for k, v := range arrivals[i] {
			s.ewma[i][k] += preloadAlpha * (float64(v) - s.ewma[i][k])
		}
	}
	if !s.cfg.Preload {
		return
	}
	minDemand := s.cfg.PreloadMinDemand
	if mat.Zero(minDemand) {
		minDemand = 3
	}
	c := s.cfg.Cluster
	K := c.N()
	// Spare bandwidth per edge after this plan's forwarding and shipping
	// (and any budget the parent coordinator already committed).
	spare := make([]float64, K)
	for k := 0; k < K; k++ {
		spare[k] = c.BandwidthMBAt(t, k) - s.reservedMB(k)
	}
	for _, tr := range plan.Transfers {
		mb := float64(tr.Count) * s.cfg.Apps[tr.App].RequestMB
		spare[tr.From] -= mb
		spare[tr.To] -= mb
	}
	shipped := make([]map[[2]int]bool, K)
	for k := range shipped {
		shipped[k] = map[[2]int]bool{}
	}
	for _, d := range plan.Deployments {
		key := [2]int{d.App, d.Version}
		if !s.prev[d.Edge][key] && !shipped[d.Edge][key] {
			shipped[d.Edge][key] = true
			spare[d.Edge] -= s.cfg.Apps[d.App].Models[d.Version].CompressedMB
		}
	}
	for k := 0; k < K; k++ {
		if s.down[k] || spare[k] <= 0 {
			continue
		}
		// Best candidate: the highest-demand app whose next-better version
		// (above anything resident or deployed this slot) fits the spare.
		bestApp, bestVer := -1, -1
		bestDemand := minDemand
		for i := range s.cfg.Apps {
			if s.ewma[i][k] < bestDemand {
				continue
			}
			top := -1
			for j := range s.cfg.Apps[i].Models {
				key := [2]int{i, j}
				if s.prev[k][key] || shipped[k][key] {
					if j > top {
						top = j
					}
				}
			}
			for j := len(s.cfg.Apps[i].Models) - 1; j > top; j-- {
				if s.cfg.Apps[i].Models[j].CompressedMB <= spare[k] {
					bestApp, bestVer = i, j
					bestDemand = s.ewma[i][k]
					break
				}
			}
		}
		if bestApp >= 0 {
			plan.Preloads = append(plan.Preloads, edgesim.Preload{App: bestApp, Version: bestVer, Edge: k})
			spare[k] -= s.cfg.Apps[bestApp].Models[bestVer].CompressedMB
		}
	}
}

// Observe implements edgesim.Scheduler: realized TIR measurements flow into
// the MAB tuners (Eq. 15–22).
func (s *Scheduler) Observe(t int, fbs []edgesim.Feedback) {
	for _, fb := range fbs {
		s.provider.Observe(ModelKey{Edge: fb.Edge, App: fb.App, Version: fb.Version}, fb.Batch, fb.TIR)
	}
}

package core

import (
	"math"

	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/edgesim"
	"repro/internal/miqp"
	"repro/internal/par"
)

// defaultCoordRounds bounds the coordinator's cross-domain balancing passes
// per slot when Config.CoordRounds is zero. Two rounds settle the bulk of the
// imbalance (the first pairs extremes, the second catches what the first
// round's bandwidth limits deferred); further rounds rarely move anything.
const defaultCoordRounds = 2

// coordBwShare is the fraction of the stage-1 forwarding budget
// (BwFrac · N^t_k) the coordinator may spend on cross-domain transfers at any
// single edge. Capping it below 1 guarantees every domain solver still has
// forwarding room for intra-domain redistribution even at edges the
// coordinator leaned on.
const coordBwShare = 0.5

// hierState is the hierarchical decomposition of a scheduler: the fleet is
// partitioned into bounded-size collaboration domains, each owning a full
// monolithic sub-scheduler over a restricted cluster view, plus the caches the
// top-level coordinator needs to settle cross-domain workload flow.
//
// Determinism argument (the Workers-invariance contract extends to
// hierarchical mode):
//
//  1. The partition (cluster.Partition) is a pure function of the edge specs.
//  2. The coordinator runs serially before any fan-out, iterates domains,
//     edges, and apps in fixed index order, and reads only deterministic
//     inputs (arrivals, the γ cache, per-slot bandwidth draws, down flags) —
//     so the cross-domain transfers and reserved-bandwidth vectors are
//     byte-identical across runs and worker counts.
//  3. Each domain solve is the existing decomposed path, already byte-identical
//     across worker counts; domains touch disjoint state (own sub-scheduler,
//     own cluster view, own reuse layer), so running them concurrently cannot
//     interact. The shared TIR provider is warmed over every (edge, app,
//     version) key at construction, after which concurrent Params reads are
//     pure map lookups (bandit.Tuner.Params mutates nothing).
//  4. The merge gathers domain plans in domain index order.
//
// Warming the provider at construction is state-equivalent to the monolithic
// scheduler: monolithic stage 1 touches every (i, j, k) key in its first
// Decide, and a tuner created at t=0 that receives every subsequent broadcast
// Tick is indistinguishable from one lazily created at its first read.
type hierState struct {
	domains  [][]int // global edge indices per domain, each ascending
	domainOf []int   // global edge index -> domain index
	localOf  []int   // global edge index -> index within its domain
	subs     []*Scheduler
	rounds   int
	outer    int // concurrent domain solves (par.TwoLevel outer width)
	// gamma[k][i][j] caches the γ predictor for every global (edge, app,
	// version) so concurrent domain solves never invoke a caller-supplied
	// GammaMS func in parallel. minGamma[i][k] = min_j gamma[k][i][j] is the
	// coordinator's optimistic per-request cost estimate (Eq. 3 currency).
	gamma    [][][]float64
	minGamma [][]float64
}

// domainProvider presents a domain's local edge indices to a sub-scheduler
// while reading the fleet-wide shared provider. Tick is a no-op: the outer
// Decide ticks the shared provider exactly once per slot, and the sub-
// schedulers' Decide (which would tick again) is bypassed in favor of their
// decideDecomposed core.
type domainProvider struct {
	p      ParamsProvider
	global []int // local edge index -> global edge index
}

func (dp *domainProvider) Params(k ModelKey) bandit.TIRParams {
	k.Edge = dp.global[k.Edge]
	return dp.p.Params(k)
}

func (dp *domainProvider) Observe(k ModelKey, batch int, tir float64) {
	k.Edge = dp.global[k.Edge]
	dp.p.Observe(k, batch, tir)
}

func (dp *domainProvider) Tick() {}

// newHierState partitions s's fleet and builds one monolithic sub-scheduler
// per domain. Called from New after the top-level scheduler is fully reset.
func newHierState(s *Scheduler) (*hierState, error) {
	c := s.cfg.Cluster
	K := c.N()
	I := len(s.cfg.Apps)
	h := &hierState{
		domains:  clusterPartition(s),
		domainOf: make([]int, K),
		localOf:  make([]int, K),
		rounds:   s.cfg.CoordRounds,
	}
	if h.rounds <= 0 {
		h.rounds = defaultCoordRounds
	}
	for d, dom := range h.domains {
		for li, gk := range dom {
			h.domainOf[gk] = d
			h.localOf[gk] = li
		}
	}

	// Warm the shared provider over every key (serially — first reads
	// materialize tuner state) and cache γ while we're at it.
	h.gamma = make([][][]float64, K)
	h.minGamma = make([][]float64, I)
	for i := range h.minGamma {
		h.minGamma[i] = make([]float64, K)
	}
	for k := 0; k < K; k++ {
		h.gamma[k] = make([][]float64, I)
		for i, app := range s.cfg.Apps {
			h.gamma[k][i] = make([]float64, len(app.Models))
			best := math.Inf(1)
			for j := range app.Models {
				key := ModelKey{Edge: k, App: i, Version: j}
				s.provider.Params(key)
				g := s.gamma(key)
				h.gamma[k][i][j] = g
				if g < best {
					best = g
				}
			}
			h.minGamma[i][k] = best
		}
	}

	D := len(h.domains)
	outer, inner := par.TwoLevel(par.CapWorkers(s.cfg.Workers), D)
	h.outer = outer
	for d, dom := range h.domains {
		dom := dom
		sub, err := c.Sub(dom)
		if err != nil {
			return nil, err
		}
		subCfg := s.cfg
		subCfg.Cluster = sub
		subCfg.Domains = 0
		subCfg.DomainSize = 0
		subCfg.CoordRounds = 0
		subCfg.Provider = &domainProvider{p: s.provider, global: dom}
		subCfg.GammaMS = func(k ModelKey) float64 {
			return h.gamma[dom[k.Edge]][k.App][k.Version]
		}
		subCfg.Workers = inner(d)
		subCfg.Redist.DownEdges = nil
		subCfg.Redist.Scratch = nil
		if subCfg.Redist.RoundRNG != nil || subCfg.RoundSeed != 0 {
			// Randomized rounding: each domain needs its own deterministic
			// stream (a shared *rand.Rand would race across domains and make
			// draw order depend on scheduling).
			subCfg.Redist.RoundRNG = nil
			subCfg.RoundSeed = subCfg.RoundSeed ^ (int64(d+1) * 0x5851F42D4C957F2D)
			if subCfg.RoundSeed == 0 {
				subCfg.RoundSeed = int64(d + 1)
			}
		}
		ss, err := New(subCfg)
		if err != nil {
			return nil, err
		}
		h.subs = append(h.subs, ss)
	}
	return h, nil
}

// clusterPartition applies the configured partitioning knobs.
func clusterPartition(s *Scheduler) [][]int {
	return cluster.Partition(s.cfg.Cluster, s.cfg.Domains, s.cfg.DomainSize)
}

// decideHierarchical is the hierarchical slot decision: a serial top-level
// coordinator settles coarse cross-domain workload flow (bounded greedy
// dual-adjustment over the Eq. 3 conservation constraint), then every domain
// solves its own redistribution LP + per-edge MILPs concurrently, and the
// domain plans are merged in domain index order.
func (s *Scheduler) decideHierarchical(t int, arrivals [][]int) (*edgesim.Plan, error) {
	h := s.hier
	c := s.cfg.Cluster
	I := len(s.cfg.Apps)
	K := c.N()
	D := len(h.domains)

	// Working copy: the coordinator re-homes arrivals, and each domain then
	// plans against its post-coordination share.
	adj := make([][]int, I)
	for i := range arrivals {
		adj[i] = append([]int(nil), arrivals[i]...)
	}
	reserved := make([]float64, K)
	var cross []edgesim.Transfer
	if D > 1 {
		for r := 0; r < h.rounds; r++ {
			if !s.balanceOnce(t, adj, reserved, &cross) {
				break
			}
		}
	}

	// Serial pre-pass: hand each sub-scheduler its local arrivals and the
	// coordinator's bandwidth spend at its edges.
	localArr := make([][][]int, D)
	for d, dom := range h.domains {
		la := make([][]int, I)
		for i := 0; i < I; i++ {
			la[i] = make([]int, len(dom))
			for li, gk := range dom {
				la[i][li] = adj[i][gk]
			}
		}
		localArr[d] = la
		var local []float64
		for _, gk := range dom {
			if reserved[gk] > 0 {
				local = make([]float64, len(dom))
				break
			}
		}
		if local != nil {
			for li, gk := range dom {
				local[li] = reserved[gk]
			}
		}
		h.subs[d].bwReserved = local
	}

	// Concurrent domain solves. Each sub-scheduler is owned by exactly one
	// item, so the only shared state is the (pre-warmed, read-only during the
	// fan-out) TIR provider and the parent cluster's bandwidth cache (a
	// 64-slot ring of atomic cells holding pure values).
	plans := make([]*edgesim.Plan, D)
	if err := par.ForEach(h.outer, D, func(_, d int) error {
		p, err := h.subs[d].decideDecomposed(t, localArr[d])
		if err != nil {
			return err
		}
		plans[d] = p
		return nil
	}); err != nil {
		return nil, err
	}

	// Merge in domain index order: remap local edge indices to global ones.
	merged := &edgesim.Plan{Transfers: append([]edgesim.Transfer(nil), cross...)}
	merged.Dropped = make([][]int, I)
	for i := range merged.Dropped {
		merged.Dropped[i] = make([]int, K)
	}
	var slotSolver miqp.Stats
	for d, dom := range h.domains {
		p := plans[d]
		for _, dep := range p.Deployments {
			dep.Edge = dom[dep.Edge]
			merged.Deployments = append(merged.Deployments, dep)
		}
		for _, tr := range p.Transfers {
			tr.From, tr.To = dom[tr.From], dom[tr.To]
			merged.Transfers = append(merged.Transfers, tr)
		}
		for _, pl := range p.Preloads {
			pl.Edge = dom[pl.Edge]
			merged.Preloads = append(merged.Preloads, pl)
		}
		for i := 0; i < I; i++ {
			for li, v := range p.Dropped[i] {
				merged.Dropped[i][dom[li]] = v
			}
		}
		if p.Solver != nil {
			slotSolver.Add(*p.Solver)
		}
	}
	if len(cross) > 0 {
		// Relay elimination. A coordinator transfer into an edge whose domain
		// solver then forwards onward would make the merged plan a multi-hop
		// relay, and Eq. 3 (and the executor) forbid an edge forwarding more
		// than its own arrivals. Re-derive the pairwise realization from the
		// net flow: each edge's charge becomes |out − in| ≤ out + in per app,
		// so bandwidth feasibility is preserved, conservation is unchanged
		// (served + dropped still equals arrivals − out + in at every edge),
		// and matchTransfers is a deterministic serial pass. Without cross
		// transfers the domains are disjoint and relays cannot arise.
		eff := make([][]int, I)
		for i := 0; i < I; i++ {
			eff[i] = append([]int(nil), arrivals[i]...)
		}
		for _, tr := range merged.Transfers {
			eff[tr.App][tr.From] -= tr.Count
			eff[tr.App][tr.To] += tr.Count
		}
		merged.Transfers = matchTransfers(arrivals, eff)
	}
	merged.Solver = &slotSolver
	s.solver.Add(slotSolver)
	return merged, nil
}

// balanceOnce runs one coordinator round: domains are ranked by congestion
// (estimated demand-milliseconds over up-edge slot capacity), the most- and
// least-loaded are paired off (first with last, second with second-to-last,
// ...), and workload moves from each pair's overloaded side toward the
// equalizing level r = (demand_a + demand_b)/(cap_a + cap_b), subject to the
// coordinator's per-edge bandwidth budget (coordBwShare of the stage-1
// forwarding reserve, charged to both transfer endpoints, Eq. 9). Arrivals
// move in adj, spend accumulates in reserved, transfers append to cross; the
// return value reports whether anything moved (false terminates the round
// loop early).
//
// Everything here is serial, iterates in fixed index order, and reads only
// deterministic inputs — see the hierState determinism argument.
func (s *Scheduler) balanceOnce(t int, adj [][]int, reserved []float64, cross *[]edgesim.Transfer) bool {
	h := s.hier
	c := s.cfg.Cluster
	I := len(s.cfg.Apps)
	K := c.N()
	D := len(h.domains)
	slotMS := c.SlotMS()
	bwFrac := orDefault(s.cfg.Redist.BwFrac, 0.7)

	// Per-edge optimistic demand estimate and capacity.
	demandMS := make([]float64, K)
	capMS := make([]float64, K)
	for k := 0; k < K; k++ {
		if !s.down[k] {
			capMS[k] = slotMS
		}
		for i := 0; i < I; i++ {
			demandMS[k] += float64(adj[i][k]) * h.minGamma[i][k]
		}
	}
	domDemand := make([]float64, D)
	domCap := make([]float64, D)
	util := make([]float64, D)
	for d, dom := range h.domains {
		for _, gk := range dom {
			domDemand[d] += demandMS[gk]
			domCap[d] += capMS[gk]
		}
		if domCap[d] > 0 {
			util[d] = domDemand[d] / domCap[d]
		} else if domDemand[d] > 0 {
			util[d] = math.Inf(1)
		}
	}
	order := argsortDesc(util)

	// Remaining coordinator bandwidth per edge, lazily realized.
	budget := func(k int) float64 {
		b := coordBwShare*bwFrac*c.BandwidthMBAt(t, k) - reserved[k]
		if b < 0 {
			return 0
		}
		return b
	}

	const tol = 0.05
	moved := false
	for p := 0; p < D/2; p++ {
		src, dst := order[p], order[D-1-p]
		if domCap[dst] <= 0 {
			continue // a fully failed domain cannot receive
		}
		gap := util[src] - util[dst]
		if !(gap > tol) {
			continue
		}
		// Equalizing level: move until src's estimated utilization drops to
		// the pair's pooled ratio.
		r := (domDemand[src] + domDemand[dst]) / (domCap[src] + domCap[dst])
		moveMS := domDemand[src] - r*domCap[src]
		if moveMS <= 0 {
			continue
		}
		for _, a := range h.domains[src] {
			if moveMS <= 0 {
				break
			}
			for i := 0; i < I && moveMS > 0; i++ {
				avail := adj[i][a]
				if avail <= 0 {
					continue
				}
				g := h.minGamma[i][a]
				if g <= 0 {
					continue
				}
				// Receiver: the dst-domain edge with the most headroom
				// (capacity minus estimated demand), ties to the lowest index.
				b, headroom := -1, 0.0
				for _, cand := range h.domains[dst] {
					if s.down[cand] {
						continue
					}
					hr := capMS[cand] - demandMS[cand]
					if hr > headroom {
						b, headroom = cand, hr
					}
				}
				if b < 0 {
					break
				}
				gb := h.minGamma[i][b]
				if gb <= 0 {
					continue
				}
				n := avail
				if byMove := int(moveMS / g); byMove < n {
					n = byMove
				}
				if byHead := int(headroom / gb); byHead < n {
					n = byHead
				}
				per := s.cfg.Apps[i].RequestMB
				if per > 0 {
					if byBw := int(math.Min(budget(a), budget(b)) / per); byBw < n {
						n = byBw
					}
				}
				if n <= 0 {
					continue
				}
				mb := float64(n) * per
				adj[i][a] -= n
				adj[i][b] += n
				reserved[a] += mb
				reserved[b] += mb
				demandMS[a] -= float64(n) * g
				demandMS[b] += float64(n) * gb
				domDemand[src] -= float64(n) * g
				domDemand[dst] += float64(n) * gb
				moveMS -= float64(n) * g
				*cross = append(*cross, edgesim.Transfer{App: i, From: a, To: b, Count: n})
				moved = true
			}
		}
	}
	return moved
}

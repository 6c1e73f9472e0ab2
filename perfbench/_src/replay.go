package main

import (
	"fmt"
	"time"

	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/models"
)

// replayer re-runs stage 1 (core.Redistribute) and stage 2 (core.SolveEdge)
// on one slot's own inputs in the traced run, the way the package's
// BenchmarkRedistributeLarge and BenchmarkSolveEdgeLarge call them: default
// options, no scratch, no cross-slot seed. Each slot replays one domain
// (slot t replays domain t mod D) so that a large fleet's traced run stays
// within its time. The replay reads the scheduler's TIR provider after
// Decide and before Observe, so it sees the parameters the slot was planned
// with; the online tuner materializes a key the same way whenever it is
// first read, so the extra reads leave every decision unchanged.
type replayer struct {
	c       *cluster.Cluster
	apps    []*models.Application
	prov    core.ParamsProvider
	domains [][]int
	subs    []*cluster.Cluster
	// prev[k] holds the models resident at edge k from the previous plan.
	prev []map[[2]int]bool
	tr   *tracer
}

func newReplayer(c *cluster.Cluster, apps []*models.Application, prov core.ParamsProvider, domainSize int, tr *tracer) (*replayer, error) {
	r := &replayer{c: c, apps: apps, prov: prov, tr: tr, prev: make([]map[[2]int]bool, c.N())}
	for k := range r.prev {
		r.prev[k] = map[[2]int]bool{}
	}
	if domainSize <= 0 {
		all := make([]int, c.N())
		for k := range all {
			all[k] = k
		}
		r.domains, r.subs = [][]int{all}, []*cluster.Cluster{c}
		return r, nil
	}
	r.domains = cluster.Partition(c, 0, domainSize)
	for _, d := range r.domains {
		sub, err := c.Sub(d)
		if err != nil {
			return nil, fmt.Errorf("replay domain: %w", err)
		}
		r.subs = append(r.subs, sub)
	}
	return r, nil
}

// replay times stage 1 and every loaded edge's stage 2 for slot t as
// children of span parent, then records plan's residency for the next slot.
func (r *replayer) replay(t int, arrivals [][]int, plan *edgesim.Plan, parent int32, op int64) error {
	d := t % len(r.domains)
	dom, sub := r.domains[d], r.subs[d]
	I := len(r.apps)
	local := make([][]int, I)
	for i := range local {
		local[i] = make([]int, len(dom))
		for j, k := range dom {
			local[i][j] = arrivals[i][k]
		}
	}
	params := func(key core.ModelKey) bandit.TIRParams {
		key.Edge = dom[key.Edge]
		return r.prov.Params(key)
	}
	gamma := func(key core.ModelKey) float64 {
		return r.c.Edges[dom[key.Edge]].Device.SingleLatencyMS(r.apps[key.App].Models[key.Version].Profile)
	}
	start := time.Now()
	red, err := core.Redistribute(sub, r.apps, local, params, gamma, t, core.RedistOptions{})
	r.tr.record("core.redistribute", parent, op, start, time.Now())
	if err != nil {
		return fmt.Errorf("replay Redistribute slot %d: %w", t, err)
	}
	for j, k := range dom {
		w := make([]int, I)
		load := 0
		for i := range w {
			w[i] = red.Alloc[i][j]
			load += w[i]
		}
		if load == 0 {
			continue
		}
		ship := sub.BandwidthMBAt(t, j) - red.ForwardMB[j]
		if ship < 0 {
			ship = 0
		}
		edge := r.c.Edges[k]
		ep := &core.EdgeProblem{
			Edge: edge, EdgeIdx: k, Apps: r.apps, Workload: w,
			Params: func(app, version int) bandit.TIRParams {
				return r.prov.Params(core.ModelKey{Edge: k, App: app, Version: version})
			},
			GammaMS: func(app, version int) float64 {
				return edge.Device.SingleLatencyMS(r.apps[app].Models[version].Profile)
			},
			SlotMS: r.c.SlotMS(), ShipBudgetMB: ship, PrevDeployed: r.prev[k],
		}
		start := time.Now()
		asg, err := core.SolveEdge(ep)
		id := r.tr.record("core.solve_edge", parent, op, start, time.Now())
		if err != nil {
			return fmt.Errorf("replay SolveEdge slot %d edge %d: %w", t, k, err)
		}
		r.tr.count(id, "edge", int64(k))
		r.tr.count(id, "nodes", int64(asg.Solver.Nodes))
		r.tr.count(id, "pivots", int64(asg.Solver.Pivots))
	}
	for k := range r.prev {
		r.prev[k] = map[[2]int]bool{}
	}
	for _, dep := range plan.Deployments {
		r.prev[dep.Edge][[2]int{dep.App, dep.Version}] = true
	}
	for _, pl := range plan.Preloads {
		r.prev[pl.Edge][[2]int{pl.App, pl.Version}] = true
	}
	return nil
}

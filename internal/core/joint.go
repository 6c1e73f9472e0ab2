package core

import (
	"fmt"
	"math"

	"repro/internal/edgesim"
	"repro/internal/miqp"
	"repro/internal/par"
)

// decideJoint builds and solves the paper's full per-slot program P1/P2 over
// all edges at once: redistribution (y via out/in flows), model deployment
// (x), and batch sizing (b), with the Eq. 24/25 Taylor linearization of the
// computation constraint. Exact branch and bound — this is the faithful
// Gurobi-equivalent path, used at small scale and by the abl-solver bench.
func (s *Scheduler) decideJoint(t int, arrivals [][]int) (*edgesim.Plan, error) {
	if s.cfg.Mode != ModeMerged {
		return nil, fmt.Errorf("core: joint solver supports ModeMerged only, got %v", s.cfg.Mode)
	}
	c := s.cfg.Cluster
	I := len(s.cfg.Apps)
	K := c.N()
	maxBatch := s.cfg.MaxBatch
	if maxBatch == 0 {
		maxBatch = DefaultMaxBatch
	}
	nodes := s.cfg.SolveNodes
	if nodes == 0 {
		nodes = 20000
	}
	transferCost := orDefault(s.cfg.Redist.TransferCost, 1e-3)
	dropPen := orDefault(s.cfg.DropPenalty, DefaultDropPenalty)
	ovPen := orDefault(s.cfg.OverflowPenaltyPerMS, DefaultOverflowPenaltyPerMS)

	totalPerApp := make([]int, I)
	for i := 0; i < I; i++ {
		for k := 0; k < K; k++ {
			totalPerApp[i] += arrivals[i][k]
		}
	}

	b := miqp.NewBuilder()
	type cell struct {
		x, bb int
		eta   float64
		bStar int
	}
	cells := map[[3]int]*cell{} // (i, j, k)
	outV := make([][]int, I)
	inV := make([][]int, I)
	dropV := make([][]int, I)

	// Per-(edge, app) compute terms feed the nested SLO-class budgets below.
	computeCols := make([][][]int, K)
	computeCoefs := make([][][]float64, K)
	for k := 0; k < K; k++ {
		computeCols[k] = make([][]int, I)
		computeCoefs[k] = make([][]float64, I)
	}
	weightCols := make([][]int, K)
	weightCoefs := make([][]float64, K)
	type actTerm struct {
		col  int
		coef float64
	}
	actTerms := make([][]actTerm, K)
	bwCols := make([][]int, K)
	bwCoefs := make([][]float64, K)

	for i := 0; i < I; i++ {
		outV[i] = make([]int, K)
		inV[i] = make([]int, K)
		dropV[i] = make([]int, K)
		for k := 0; k < K; k++ {
			outV[i][k] = b.AddVar(fmt.Sprintf("out_%d_%d", i, k), 0, float64(arrivals[i][k]), true)
			inV[i][k] = b.AddVar(fmt.Sprintf("in_%d_%d", i, k), 0, float64(totalPerApp[i]), true)
			dropV[i][k] = b.AddVar(fmt.Sprintf("d_%d_%d", i, k), 0, float64(arrivals[i][k])+float64(totalPerApp[i]), true)
			b.SetObj(outV[i][k], transferCost)
			b.SetObj(inV[i][k], transferCost)
			b.SetObj(dropV[i][k], dropPen)
			// Forwarding charges both endpoints' bandwidth (Eq. 9).
			bwCols[k] = append(bwCols[k], outV[i][k], inV[i][k])
			bwCoefs[k] = append(bwCoefs[k], s.cfg.Apps[i].RequestMB, s.cfg.Apps[i].RequestMB)
		}
	}
	for i := 0; i < I; i++ {
		if totalPerApp[i] == 0 {
			continue
		}
		for j, m := range s.cfg.Apps[i].Models {
			for k := 0; k < K; k++ {
				key := ModelKey{Edge: k, App: i, Version: j}
				par := s.provider.Params(key)
				gamma := s.gamma(key)
				// Batch regime mirrors SolveEdge: paper-literal single batch
				// under KneeCap, multi-batch at b* otherwise.
				ub := totalPerApp[i]
				bStar := maxBatch
				if memCap := int((0.5*c.Edges[k].MemoryMB - m.WeightsMB) / m.IntermediateMB); bStar > memCap {
					bStar = memCap
				}
				if bStar < 1 {
					bStar = 1
				}
				slope := gamma / math.Max(par.TIR(float64(bStar)), 1)
				fixed := 0.5 * slope * float64(bStar) // expected ⌈n/b*⌉ quantization cost
				if s.cfg.KneeCap {
					ub = int(math.Min(par.Beta, float64(maxBatch)))
					slope = gamma * (1 - par.Eta)
					bStar = ub
					fixed = gamma * par.Eta
				}
				if ub > totalPerApp[i] {
					ub = totalPerApp[i]
				}
				if ub < 1 {
					ub = 1
				}
				x := b.AddBinary(fmt.Sprintf("x_%d_%d_%d", i, j, k))
				bb := b.AddVar(fmt.Sprintf("b_%d_%d_%d", i, j, k), 0, float64(ub), true)
				b.AddLe([]int{bb, x}, []float64{1, -float64(ub)}, 0) // Eq. 4
				b.SetObj(bb, m.Loss)                                 // Eq. 10 (x·b collapses to b)
				cells[[3]int{i, j, k}] = &cell{x: x, bb: bb, eta: par.Eta, bStar: bStar}
				computeCols[k][i] = append(computeCols[k][i], bb, x)
				computeCoefs[k][i] = append(computeCoefs[k][i], slope, fixed)
				weightCols[k] = append(weightCols[k], x)
				weightCoefs[k] = append(weightCoefs[k], m.WeightsMB)
				if s.cfg.KneeCap {
					actTerms[k] = append(actTerms[k], actTerm{bb, m.IntermediateMB})
				} else {
					actTerms[k] = append(actTerms[k], actTerm{x, m.IntermediateMB * float64(bStar)})
				}
				if !s.prev[k][[2]int{i, j}] {
					// Eq. 9's [x^t − x^{t-1}]⁺ shipping term (P1 vs P2 split).
					bwCols[k] = append(bwCols[k], x)
					bwCoefs[k] = append(bwCoefs[k], m.CompressedMB)
				}
			}
		}
	}

	// Conservation per (i, k): Σ_j b + d + out − in = arrivals (Eq. 3/5).
	for i := 0; i < I; i++ {
		for k := 0; k < K; k++ {
			cols := []int{dropV[i][k], outV[i][k], inV[i][k]}
			coefs := []float64{1, 1, -1}
			for j := range s.cfg.Apps[i].Models {
				if cl, ok := cells[[3]int{i, j, k}]; ok {
					cols = append(cols, cl.bb)
					coefs = append(coefs, 1)
				}
			}
			b.AddEq(cols, coefs, float64(arrivals[i][k]))
		}
		// Flow balance: Σ_k out = Σ_k in.
		cols := make([]int, 0, 2*K)
		coefs := make([]float64, 0, 2*K)
		for k := 0; k < K; k++ {
			cols = append(cols, outV[i][k], inV[i][k])
			coefs = append(coefs, 1, -1)
		}
		b.AddEq(cols, coefs, 0)
	}
	// Per-edge resources.
	slotMS := c.SlotMS()
	classes := sloClasses(s.cfg.Apps, totalPerApp)
	for k := 0; k < K; k++ {
		// Nested SLO-class budgets (Eq. 25 generalized; see SolveEdge).
		for ci, f := range classes {
			var cols []int
			var coefs []float64
			for i := 0; i < I; i++ {
				if s.cfg.Apps[i].SLO() > f+1e-12 {
					continue
				}
				cols = append(cols, computeCols[k][i]...)
				coefs = append(coefs, computeCoefs[k][i]...)
			}
			if len(cols) == 0 {
				continue
			}
			slack := b.AddVar(fmt.Sprintf("ov_%d_%d", k, ci), 0, math.Inf(1), false)
			b.SetObj(slack, ovPen)
			cols = append(cols, slack)
			coefs = append(coefs, -1)
			b.AddLe(cols, coefs, f*slotMS)
		}
		if len(weightCols[k]) > 0 { // Eq. 6, per the configured memory model
			if s.cfg.Mem == MemSum {
				cols := append([]int{}, weightCols[k]...)
				coefs := append([]float64{}, weightCoefs[k]...)
				for _, a := range actTerms[k] {
					cols = append(cols, a.col)
					coefs = append(coefs, a.coef)
				}
				b.AddLe(cols, coefs, c.Edges[k].MemoryMB)
			} else {
				for _, a := range actTerms[k] {
					cols := append([]int{}, weightCols[k]...)
					coefs := append([]float64{}, weightCoefs[k]...)
					cols = append(cols, a.col)
					coefs = append(coefs, a.coef)
					b.AddLe(cols, coefs, c.Edges[k].MemoryMB)
				}
			}
		}
		if len(bwCols[k]) > 0 {
			b.AddLe(bwCols[k], bwCoefs[k], c.BandwidthMBAt(t, k)) // Eq. 9
		}
	}

	prob := b.Build()
	// Seed the drop-everything incumbent (always feasible) so the search is
	// pruned from the start and a plan exists even at the node budget.
	inc := make([]float64, b.NumVars())
	for i := 0; i < I; i++ {
		for k := 0; k < K; k++ {
			inc[dropV[i][k]] = float64(arrivals[i][k])
		}
	}
	res, err := miqp.SolveOpts(prob, miqp.Options{
		MaxNodes:  nodes,
		Incumbent: inc,
		GapTol:    1e-6, // exact: the joint path is the reference solver
		Workers:   par.CapWorkers(s.cfg.Workers),
	})
	if err != nil {
		return nil, fmt.Errorf("core: joint solve: %w", err)
	}
	if res.X == nil {
		return nil, fmt.Errorf("core: joint solve found no incumbent (status %v)", res.Status)
	}
	s.solver.Add(res.Stats)

	plan := &edgesim.Plan{Dropped: make([][]int, I), Solver: &res.Stats}
	iv := func(col int) int { return int(math.Round(res.X[col])) }
	outN := make([][]int, I)
	inN := make([][]int, I)
	for i := 0; i < I; i++ {
		plan.Dropped[i] = make([]int, K)
		outN[i] = make([]int, K)
		inN[i] = make([]int, K)
		for k := 0; k < K; k++ {
			plan.Dropped[i][k] = iv(dropV[i][k])
			outN[i][k] = iv(outV[i][k])
			inN[i][k] = iv(inV[i][k])
		}
		for j := range s.cfg.Apps[i].Models {
			for k := 0; k < K; k++ {
				cl, ok := cells[[3]int{i, j, k}]
				if !ok {
					continue
				}
				served := iv(cl.bb)
				if served <= 0 {
					continue
				}
				var sizes []int
				for left := served; left > 0; left -= cl.bStar {
					bsz := cl.bStar
					if left < bsz {
						bsz = left
					}
					sizes = append(sizes, bsz)
				}
				plan.Deployments = append(plan.Deployments, edgesim.Deployment{
					App: i, Version: j, Edge: k, Requests: served,
					BatchSizes: sizes,
				})
			}
		}
	}
	// Realize out/in flows as pairwise transfers: build the implied
	// allocation and match surpluses to deficits.
	alloc := make([][]int, I)
	for i := 0; i < I; i++ {
		alloc[i] = make([]int, K)
		for k := 0; k < K; k++ {
			alloc[i][k] = arrivals[i][k] - outN[i][k] + inN[i][k]
		}
	}
	plan.Transfers = matchTransfers(arrivals, alloc)
	s.noteDeployments(plan)
	return plan, nil
}

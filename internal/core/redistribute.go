package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/edgesim"
	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/miqp"
	"repro/internal/models"
)

// RedistOptions parameterizes stage 1 of the decomposed solver: the
// fractional redistribution LP plus integer rounding.
type RedistOptions struct {
	// ComputeFrac scales the per-edge compute budget stage 1 plans against
	// (≤ 1 leaves headroom for the Eq. 24 fixed terms ignored here).
	ComputeFrac float64 // 0 = 0.95
	// MemFrac reserves memory for model weights (stage 1 only sees
	// activations).
	MemFrac float64 // 0 = 0.75
	// BwFrac reserves bandwidth for model shipping (stage 2 spends the rest).
	BwFrac float64 // 0 = 0.7
	// TransferCost is a tiny per-request objective cost discouraging
	// gratuitous transfers.
	TransferCost float64 // 0 = 1e-3
	// RoundRNG, when non-nil, switches from deterministic largest-remainder
	// rounding to randomized proportional rounding (OAEI's style).
	RoundRNG *rand.Rand
	// KneeCap mirrors EdgeProblem.KneeCap: cap per-(model, edge) shares at
	// the TIR knee β̂ and plan with the first-segment slope only.
	KneeCap bool
	// MaxBatch is the merged-batch cap used when KneeCap is off
	// (0 = DefaultMaxBatch).
	MaxBatch int
	// Mem mirrors EdgeProblem.Mem.
	Mem MemModel
	// DownEdges marks failed edges: they receive no shares, no inbound
	// transfers, and their local arrivals are routed out or dropped.
	DownEdges []bool
	// BalanceWeight > 0 adds a convex utilization-balancing term
	// w·Σ_k util_k² to the stage-1 objective (utilization = planned compute
	// over the slot), implemented as a piecewise-linear epigraph so the
	// problem stays an LP. Balanced headroom cuts the tail risk correlated
	// slot noise creates on near-full edges.
	BalanceWeight float64
	// Scratch, when non-nil, is the caller-owned LP workspace the stage-1
	// solve reuses (the scheduler keeps one alive across slots so the arena
	// never shrinks back between Decide calls); nil uses the lp package pool.
	Scratch *lp.Scratch
	// Basis, when non-nil, carries the stage-1 LP basis from one call to the
	// next (the scheduler owns one per instance): the solve re-enters from
	// the basis the previous call left and keeps that warm answer only when
	// lp certifies the optimum unique, so the allocation is the one a cold
	// solve returns. Nil solves cold every call.
	Basis *CarriedBasis
	// ReservedMB[k] is bandwidth a parent coordinator already spent at edge k
	// this slot (cross-domain transfers charge both endpoints); the forwarding
	// budget rows plan against the remainder. Nil means nothing reserved.
	ReservedMB []float64
}

// reservedAt reads a reserved-bandwidth vector that may be nil or short.
func reservedAt(reserved []float64, k int) float64 {
	if k < len(reserved) {
		return reserved[k]
	}
	return 0
}

// CarriedBasis is the stage-1 LP basis one Redistribute call leaves for the
// next. Its storage is regrown in place on every capture, so carrying it adds
// no per-slot allocation. The zero value holds no basis.
type CarriedBasis struct {
	b  lp.Basis
	ok bool // b holds the last optimal basis
}

// Redistribution is the stage-1 outcome.
type Redistribution struct {
	// Alloc[i][k] is the integer number of requests of app i edge k serves.
	Alloc [][]int
	// Transfers realize the Alloc from the arrival pattern pairwise.
	Transfers []edgesim.Transfer
	// ForwardMB[k] is the request-forwarding bandwidth spent at edge k.
	ForwardMB []float64
	// Solver holds the stage-1 counters of the call (the Stage1* fields).
	Solver miqp.Stats
}

// Redistribute solves the fractional redistribution LP and rounds it to an
// integer allocation realized by pairwise transfers (paper Eq. 3, the y
// variables). The LP minimizes Σ loss·f over fractional model shares f
// subject to per-edge compute/memory/bandwidth budgets — the continuous
// relaxation of P1/P2 with the per-model fixed terms dropped.
func Redistribute(
	c *cluster.Cluster,
	apps []*models.Application,
	arrivals [][]int,
	params func(k ModelKey) bandit.TIRParams,
	gammaMS func(k ModelKey) float64,
	slot int,
	opt RedistOptions,
) (*Redistribution, error) {
	I := len(apps)
	K := c.N()
	if len(arrivals) != I {
		return nil, fmt.Errorf("core: arrivals for %d apps, want %d", len(arrivals), I)
	}
	computeFrac := orDefault(opt.ComputeFrac, 0.95)
	memFrac := orDefault(opt.MemFrac, 0.75)
	bwFrac := orDefault(opt.BwFrac, 0.7)
	transferCost := orDefault(opt.TransferCost, 1e-3)
	maxBatch := opt.MaxBatch
	if maxBatch == 0 {
		maxBatch = DefaultMaxBatch
	}

	// Variable layout: f[i][j][k] fractions, then out[i][k], in[i][k],
	// slack[k] (compute overflow).
	nJ := make([]int, I)
	for i, a := range apps {
		nJ[i] = len(a.Models)
	}
	idx := 0
	fIdx := make([][][]int, I)
	for i := 0; i < I; i++ {
		fIdx[i] = make([][]int, nJ[i])
		for j := 0; j < nJ[i]; j++ {
			fIdx[i][j] = make([]int, K)
			for k := 0; k < K; k++ {
				fIdx[i][j][k] = idx
				idx++
			}
		}
	}
	outIdx := make([][]int, I)
	inIdx := make([][]int, I)
	for i := 0; i < I; i++ {
		outIdx[i] = make([]int, K)
		inIdx[i] = make([]int, K)
		for k := 0; k < K; k++ {
			outIdx[i][k] = idx
			idx++
			inIdx[i][k] = idx
			idx++
		}
	}
	slackIdx := make([]int, K)
	for k := 0; k < K; k++ {
		slackIdx[k] = idx
		idx++
	}
	// Per-(i,k) unserved slack keeps the LP feasible when arrivals exceed the
	// batch-cap capacity; rounding re-distributes these requests and stage 2
	// decides whether they are really dropped.
	dIdx := make([][]int, I)
	for i := 0; i < I; i++ {
		dIdx[i] = make([]int, K)
		for k := 0; k < K; k++ {
			dIdx[i][k] = idx
			idx++
		}
	}
	// Epigraph variables e_k ≥ util_k² (tangent cuts added below) for the
	// optional balancing term.
	eIdx := make([]int, K)
	if opt.BalanceWeight > 0 {
		for k := 0; k < K; k++ {
			eIdx[k] = idx
			idx++
		}
	}
	n := idx

	obj := make([]float64, n)
	ub := make([]float64, n)
	for i := range ub {
		ub[i] = math.Inf(1)
	}
	totalPerApp := make([]float64, I)
	for i := 0; i < I; i++ {
		for k := 0; k < K; k++ {
			totalPerApp[i] += float64(arrivals[i][k])
		}
	}
	for i := 0; i < I; i++ {
		for j := 0; j < nJ[i]; j++ {
			loss := apps[i].Models[j].Loss
			for k := 0; k < K; k++ {
				obj[fIdx[i][j][k]] = loss
				// The per-(model, edge) batch cap limits how much one edge
				// can absorb per slot; encoding it here keeps stage 1 from
				// concentrating more load on an edge than stage 2 can batch.
				cap := totalPerApp[i]
				if opt.KneeCap {
					// Paper-literal single batch: the share is capped at the
					// knee and, under time-sliced memory, at what fits
					// beside the weights.
					cap = math.Min(cap, params(ModelKey{Edge: k, App: i, Version: j}).Beta)
					if opt.Mem != MemSum {
						byMem := memFrac * c.Edges[k].MemoryMB / apps[i].Models[j].IntermediateMB
						cap = math.Min(cap, byMem)
					}
				}
				if len(opt.DownEdges) > k && opt.DownEdges[k] {
					cap = 0
				}
				ub[fIdx[i][j][k]] = cap
			}
		}
		for k := 0; k < K; k++ {
			obj[outIdx[i][k]] = transferCost
			obj[inIdx[i][k]] = transferCost
			ub[outIdx[i][k]] = float64(arrivals[i][k])
			ub[inIdx[i][k]] = totalPerApp[i]
			if len(opt.DownEdges) > k && opt.DownEdges[k] {
				ub[inIdx[i][k]] = 0 // nothing flows into a failed edge
			}
		}
	}
	for k := 0; k < K; k++ {
		obj[slackIdx[k]] = DefaultOverflowPenaltyPerMS
		if opt.BalanceWeight > 0 {
			obj[eIdx[k]] = opt.BalanceWeight
		}
	}
	for i := 0; i < I; i++ {
		for k := 0; k < K; k++ {
			obj[dIdx[i][k]] = DefaultDropPenalty
		}
	}

	var aeq [][]float64
	var beq []float64
	var aub [][]float64
	var bub []float64
	row := func() []float64 { return make([]float64, n) }

	// Conservation per (i, k): Σ_j f − in + out = arrivals.
	for i := 0; i < I; i++ {
		for k := 0; k < K; k++ {
			r := row()
			for j := 0; j < nJ[i]; j++ {
				r[fIdx[i][j][k]] = 1
			}
			r[inIdx[i][k]] = -1
			r[outIdx[i][k]] = 1
			r[dIdx[i][k]] = 1
			aeq = append(aeq, r)
			beq = append(beq, float64(arrivals[i][k]))
		}
	}
	// Flow balance per app: Σ_k out = Σ_k in.
	for i := 0; i < I; i++ {
		r := row()
		for k := 0; k < K; k++ {
			r[outIdx[i][k]] = 1
			r[inIdx[i][k]] = -1
		}
		aeq = append(aeq, r)
		beq = append(beq, 0)
	}
	// Compute per edge (soft): Σ γ(1−η)·f ≤ frac·τ + slack.
	slotMS := c.SlotMS()
	for k := 0; k < K; k++ {
		r := row()
		for i := 0; i < I; i++ {
			for j := 0; j < nJ[i]; j++ {
				key := ModelKey{Edge: k, App: i, Version: j}
				par := params(key)
				slope := 1 - par.Eta // Eq. 24 tangent (paper-literal)
				if !opt.KneeCap {
					// Multi-batch: per-request time at the throughput-optimal
					// batch size ≈ γ/TIR(β̂) = γ/Ĉ.
					slope = 1 / math.Max(par.C, 1)
				}
				r[fIdx[i][j][k]] = gammaMS(key) * slope
			}
		}
		r[slackIdx[k]] = -1
		aub = append(aub, r)
		bub = append(bub, computeFrac*slotMS)
		if opt.BalanceWeight > 0 {
			// util_k = (Σ coef·f)/slotMS reuses this row's coefficients;
			// e_k ≥ u² via tangents at u0 ∈ {0.25, 0.5, 0.75, 1.0}:
			// e ≥ 2·u0·u − u0²  ⇔  2·u0·(Σ coef·f)/τ − e ≤ u0².
			for _, u0 := range []float64{0.25, 0.5, 0.75, 1.0} {
				cut := row()
				for j := 0; j < n; j++ {
					if !mat.Zero(r[j]) && j != slackIdx[k] {
						cut[j] = 2 * u0 * r[j] / slotMS
					}
				}
				cut[eIdx[k]] = -1
				aub = append(aub, cut)
				bub = append(bub, u0*u0)
			}
		}
	}
	// Memory per edge. Under MemSum, activations of all shares accumulate
	// (Eq. 6 verbatim); under time-sliced memory the per-share caps above
	// already encode the peak-batch bound and no summed row is needed.
	if opt.Mem == MemSum {
		for k := 0; k < K; k++ {
			r := row()
			for i := 0; i < I; i++ {
				for j := 0; j < nJ[i]; j++ {
					r[fIdx[i][j][k]] = apps[i].Models[j].IntermediateMB
				}
			}
			aub = append(aub, r)
			bub = append(bub, memFrac*c.Edges[k].MemoryMB)
		}
	}
	// Bandwidth per edge (request forwarding only, hard with reserve; any
	// coordinator-reserved spend comes off the top).
	for k := 0; k < K; k++ {
		r := row()
		for i := 0; i < I; i++ {
			r[outIdx[i][k]] = apps[i].RequestMB
			r[inIdx[i][k]] = apps[i].RequestMB
		}
		budget := bwFrac*c.BandwidthMBAt(slot, k) - reservedAt(opt.ReservedMB, k)
		if budget < 0 {
			budget = 0
		}
		aub = append(aub, r)
		bub = append(bub, budget)
	}

	prob := &lp.Problem{C: obj, Aeq: aeq, Beq: beq, Aub: aub, Bub: bub, Ub: ub}
	var st miqp.Stats
	res, err := solveStage1(prob, opt, &st)
	if err != nil {
		return nil, fmt.Errorf("core: redistribution LP: %w", err)
	}
	if res.Status != lp.StatusOptimal {
		// Degenerate fallback: serve everything locally. A solve that is not
		// optimal captures no basis, so opt.Basis is left empty.
		red := localRedistribution(arrivals, I, K)
		red.Solver = st
		return red, nil
	}

	// Fractional per-edge serve totals.
	serve := make([][]float64, I)
	for i := 0; i < I; i++ {
		serve[i] = make([]float64, K)
		for k := 0; k < K; k++ {
			for j := 0; j < nJ[i]; j++ {
				serve[i][k] += res.X[fIdx[i][j][k]]
			}
		}
	}
	alloc := roundAlloc(serve, arrivals, opt.RoundRNG)
	red := &Redistribution{Alloc: alloc, ForwardMB: make([]float64, K), Solver: st}
	red.Transfers = matchTransfers(arrivals, alloc)
	red.enforceBandwidth(c, apps, arrivals, slot, bwFrac, opt.ReservedMB)
	for _, tr := range red.Transfers {
		mb := float64(tr.Count) * apps[tr.App].RequestMB
		red.ForwardMB[tr.From] += mb
		red.ForwardMB[tr.To] += mb
	}
	return red, nil
}

// solveStage1 solves the redistribution LP, re-entering from opt.Basis when
// it holds the previous call's basis. The warm answer is kept only when it is
// optimal and certified unique: the optimum is then the one a cold solve
// reaches, so the rounded allocation cannot depend on the start. A warm
// fallback already is the cold answer. Any other warm answer may be a
// different vertex of a tied optimal face and is re-solved cold. Counters go
// to st.
func solveStage1(prob *lp.Problem, opt RedistOptions, st *miqp.Stats) (*lp.Result, error) {
	st.Stage1Solves++
	carry := opt.Basis
	if carry == nil {
		var res *lp.Result
		var err error
		if opt.Scratch != nil {
			res, err = lp.SolveScratch(prob, lp.Options{}, opt.Scratch)
		} else {
			res, err = lp.SolveOpts(prob, lp.Options{})
		}
		if err == nil {
			st.Stage1Pivots += res.Pivots()
		}
		return res, err
	}
	lpOpt := lp.Options{CaptureBasis: true}
	var warm *lp.Basis
	if carry.ok {
		warm = &carry.b
	}
	carry.ok = false
	res, err := lp.SolveWarmInto(prob, lpOpt, opt.Scratch, warm, &carry.b)
	if err != nil {
		return nil, err
	}
	st.Stage1Pivots += res.Pivots()
	if res.Warm {
		if res.Status == lp.StatusOptimal && res.Unique {
			st.Stage1WarmAccepted++
		} else {
			st.Stage1Rejected++
			if res, err = lp.SolveWarmInto(prob, lpOpt, opt.Scratch, nil, &carry.b); err != nil {
				return nil, err
			}
			st.Stage1Pivots += res.Pivots()
		}
	}
	carry.ok = res.Basis != nil
	return res, nil
}

func orDefault(v, def float64) float64 {
	if mat.Zero(v) {
		return def
	}
	return v
}

// RealizeAllocation turns a target integer allocation into pairwise
// transfers from the arrival pattern, trimming transfers that exceed the
// per-edge forwarding budget (trimmed requests stay at their origin, and
// Alloc reflects the post-trim reality). reservedMB, which may be nil, is
// bandwidth a parent coordinator already spent per edge. Used by the
// drop-repair pass.
func RealizeAllocation(
	c *cluster.Cluster,
	apps []*models.Application,
	arrivals [][]int,
	alloc [][]int,
	slot int,
	bwFrac float64,
	reservedMB []float64,
) *Redistribution {
	K := c.N()
	cp := make([][]int, len(alloc))
	for i := range alloc {
		cp[i] = append([]int(nil), alloc[i]...)
	}
	red := &Redistribution{Alloc: cp, ForwardMB: make([]float64, K)}
	red.Transfers = matchTransfers(arrivals, cp)
	red.enforceBandwidth(c, apps, arrivals, slot, bwFrac, reservedMB)
	for _, tr := range red.Transfers {
		mb := float64(tr.Count) * apps[tr.App].RequestMB
		red.ForwardMB[tr.From] += mb
		red.ForwardMB[tr.To] += mb
	}
	return red
}

// localRedistribution serves every arrival where it landed.
func localRedistribution(arrivals [][]int, I, K int) *Redistribution {
	alloc := make([][]int, I)
	for i := 0; i < I; i++ {
		alloc[i] = append([]int(nil), arrivals[i]...)
	}
	return &Redistribution{Alloc: alloc, ForwardMB: make([]float64, K)}
}

// remGrid quantizes rounding remainders to 1e-9. LP optima carry rounding
// noise near 1e-12, so the noise never reorders remainders: values equal up to
// it tie, and the tie goes to the smaller edge index.
const remGrid = 1e9

// roundAlloc rounds fractional serve shares to integers preserving each
// app's total arrivals. Deterministic largest-remainder by default;
// randomized proportional when rng is non-nil (OAEI's randomized rounding).
func roundAlloc(serve [][]float64, arrivals [][]int, rng *rand.Rand) [][]int {
	I := len(serve)
	alloc := make([][]int, I)
	for i := 0; i < I; i++ {
		K := len(serve[i])
		alloc[i] = make([]int, K)
		total := 0
		for k := 0; k < K; k++ {
			total += arrivals[i][k]
		}
		if total == 0 {
			continue
		}
		floorSum := 0
		rem := make([]float64, K)
		for k := 0; k < K; k++ {
			fl := math.Floor(serve[i][k] + 1e-9)
			alloc[i][k] = int(fl)
			rem[k] = math.Round((serve[i][k]-fl)*remGrid) / remGrid
			floorSum += alloc[i][k]
		}
		left := total - floorSum
		if left < 0 {
			// Numerical over-allocation: trim from smallest remainders.
			order := argsortDesc(rem)
			for idx := K - 1; idx >= 0 && left < 0; idx-- {
				k := order[idx]
				take := -left
				if take > alloc[i][k] {
					take = alloc[i][k]
				}
				alloc[i][k] -= take
				left += take
			}
		}
		if left > 0 {
			if rng == nil {
				// The leftover exceeds K whenever the LP parked workload in
				// its unserved slack, so keep cycling the remainder order
				// until everything is placed (stage 2 decides real drops).
				order := argsortDesc(rem)
				for left > 0 {
					for _, k := range order {
						if left == 0 {
							break
						}
						alloc[i][k]++
						left--
					}
				}
			} else {
				// Randomized rounding: distribute the leftover proportional
				// to the fractional remainders.
				for left > 0 {
					var sum float64
					for _, r := range rem {
						sum += r
					}
					k := 0
					if sum <= 0 {
						k = rng.Intn(K)
					} else {
						pick := rng.Float64() * sum
						for k = 0; k < K-1; k++ {
							pick -= rem[k]
							if pick <= 0 {
								break
							}
						}
					}
					alloc[i][k]++
					rem[k] = 0
					left--
				}
			}
		}
	}
	return alloc
}

func argsortDesc(v []float64) []int {
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return v[order[a]] > v[order[b]] })
	return order
}

// matchTransfers realizes an allocation from the arrival pattern with
// pairwise transfers (greedy surplus→deficit matching per app).
func matchTransfers(arrivals [][]int, alloc [][]int) []edgesim.Transfer {
	var out []edgesim.Transfer
	for i := range alloc {
		type pair struct{ k, n int }
		var surplus, deficit []pair
		for k := range alloc[i] {
			d := arrivals[i][k] - alloc[i][k]
			if d > 0 {
				surplus = append(surplus, pair{k, d})
			} else if d < 0 {
				deficit = append(deficit, pair{k, -d})
			}
		}
		si, di := 0, 0
		for si < len(surplus) && di < len(deficit) {
			n := surplus[si].n
			if deficit[di].n < n {
				n = deficit[di].n
			}
			out = append(out, edgesim.Transfer{App: i, From: surplus[si].k, To: deficit[di].k, Count: n})
			surplus[si].n -= n
			deficit[di].n -= n
			if surplus[si].n == 0 {
				si++
			}
			if deficit[di].n == 0 {
				di++
			}
		}
	}
	return out
}

// enforceBandwidth trims transfers that would exceed the per-edge forwarding
// budget after rounding (rare: rounding can nudge totals past the LP bound).
// Trimmed requests stay at their origin edge.
func (r *Redistribution) enforceBandwidth(
	c *cluster.Cluster,
	apps []*models.Application,
	arrivals [][]int,
	slot int,
	bwFrac float64,
	reservedMB []float64,
) {
	K := c.N()
	used := make([]float64, K)
	var kept []edgesim.Transfer
	for _, tr := range r.Transfers {
		mb := float64(tr.Count) * apps[tr.App].RequestMB
		fromBudget := bwFrac*c.BandwidthMBAt(slot, tr.From) - reservedAt(reservedMB, tr.From)
		toBudget := bwFrac*c.BandwidthMBAt(slot, tr.To) - reservedAt(reservedMB, tr.To)
		if used[tr.From]+mb <= fromBudget+1e-9 && used[tr.To]+mb <= toBudget+1e-9 {
			used[tr.From] += mb
			used[tr.To] += mb
			kept = append(kept, tr)
			continue
		}
		// Trim to whatever still fits.
		per := apps[tr.App].RequestMB
		fit := tr.Count
		if per > 0 {
			fitFrom := int((fromBudget - used[tr.From]) / per)
			fitTo := int((toBudget - used[tr.To]) / per)
			if fitFrom < fit {
				fit = fitFrom
			}
			if fitTo < fit {
				fit = fitTo
			}
		}
		if fit < 0 {
			fit = 0
		}
		if fit > 0 {
			mbFit := float64(fit) * per
			used[tr.From] += mbFit
			used[tr.To] += mbFit
			kept = append(kept, edgesim.Transfer{App: tr.App, From: tr.From, To: tr.To, Count: fit})
		}
		// Return the rest to the origin's allocation.
		back := tr.Count - fit
		r.Alloc[tr.App][tr.From] += back
		r.Alloc[tr.App][tr.To] -= back
	}
	r.Transfers = kept
}

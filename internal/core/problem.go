package core

import (
	"fmt"
	"math"

	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/edgesim"
	"repro/internal/mat"
	"repro/internal/miqp"
	"repro/internal/models"
)

// MemModel selects the Eq. 6 memory interpretation.
type MemModel int

const (
	// MemTimeSliced (default) matches the executor: all deployed weights
	// resident, activations allocated only for the batch currently running —
	// Σ δ·x + max_ij μ·b ≤ M. This is what the paper's "time-sliced
	// execution" description physically implies.
	MemTimeSliced MemModel = iota
	// MemSum is Eq. 6 verbatim: Σ (δ·x + μ·b) ≤ M, charging every
	// deployment's activations simultaneously. Far more conservative; kept
	// for the abl-memmodel ablation.
	MemSum
)

// String implements fmt.Stringer.
func (m MemModel) String() string {
	switch m {
	case MemTimeSliced:
		return "time-sliced"
	case MemSum:
		return "eq6-sum"
	default:
		return fmt.Sprintf("MemModel(%d)", int(m))
	}
}

// BatchMode selects how an edge executes each (app, model) workload share.
type BatchMode int

const (
	// ModeMerged merges all requests of one (app, model) into a single
	// batch-aware parallel batch (BIRP, paper Eq. 5).
	ModeMerged BatchMode = iota
	// ModeSerial executes requests one at a time (OAEI and the paper's
	// "serialized execution" prior work).
	ModeSerial
	// ModeFixed executes batches of exactly B0, padding the last (MAX).
	ModeFixed
)

// String implements fmt.Stringer.
func (m BatchMode) String() string {
	switch m {
	case ModeMerged:
		return "merged"
	case ModeSerial:
		return "serial"
	case ModeFixed:
		return "fixed-B0"
	default:
		return fmt.Sprintf("BatchMode(%d)", int(m))
	}
}

// Penalty defaults. The overflow price approximates the paper's *hard* Eq. 8
// budget: a few ms of planned overflow already outweighs fully downgrading a
// request, so schedulers exhaust every model downgrade before spilling past
// the slot (a soft price lets a serial baseline trade massive SLO violations
// for loss, which the paper's formulation forbids). Dropping costs the
// equivalent of half a second of overflow, so requests are shed only when
// the slot is hopelessly oversubscribed.
const (
	DefaultDropPenalty          = 25.0
	DefaultOverflowPenaltyPerMS = 0.05
	// DefaultMaxBatch caps merged batch sizes (the paper's knees never
	// exceed 16; a generous cap leaves room for exploration).
	DefaultMaxBatch = 32
)

// EdgeProblem is the per-edge, per-slot model-selection and batch-sizing
// program (stage 2 of the decomposed solver; also the body of each edge's
// terms inside the joint program).
type EdgeProblem struct {
	Edge    *cluster.Edge
	EdgeIdx int
	Apps    []*models.Application
	// Workload[i] is the number of requests of app i to serve here after
	// redistribution.
	Workload []int
	// Params yields the (shaded) TIR-law parameters per model.
	Params func(app, version int) bandit.TIRParams
	// GammaMS yields the predicted single-request latency γ per model.
	GammaMS func(app, version int) float64
	// SlotMS is the slot duration τ.
	SlotMS float64
	// ShipBudgetMB is the bandwidth left for shipping new model weights.
	ShipBudgetMB float64
	// PrevDeployed marks models already resident from the previous slot.
	PrevDeployed map[[2]int]bool

	Mode     BatchMode
	FixedB0  int // required for ModeFixed
	MaxBatch int // 0 = DefaultMaxBatch
	// Mem selects the Eq. 6 memory interpretation (default MemTimeSliced).
	Mem MemModel
	// KneeCap selects the paper-literal formulation: each (app, model, edge)
	// runs a single merged batch per slot with Eq. 12's b ≤ β̂ cap. The
	// default (false) generalizes to production behavior — the deployment
	// picks the throughput-optimal batch size b* = min(β̂, memory cap) and
	// runs ⌈n/b*⌉ such batches, so heavy workloads are served instead of
	// dropped. With n ≤ b* the two coincide. abl-batchcap quantifies the
	// difference.
	KneeCap bool

	DropPenalty          float64 // 0 = default
	OverflowPenaltyPerMS float64 // 0 = default
	SolveNodes           int     // 0 = 4000
	// Workers is the branch-and-bound relaxation parallelism (≤ 1 = serial).
	// The solve is deterministic for every value; see miqp.Options.Workers.
	Workers int
	// SingleVersion restricts each application to at most one deployed model
	// version on this edge (Σ_j x_ij ≤ 1) — the "model selection" decision
	// granularity of the OAEI baseline, which picks a version per
	// application rather than mixing versions per request.
	SingleVersion bool

	// Seed, when non-nil, is a previous (typically last slot's) assignment for
	// this edge. SolveEdge rebuilds it against the current problem — clamping
	// batch sizes to the new workloads and dropping the overflow — validates
	// the repaired point, and uses it as the branch & bound incumbent when it
	// beats the greedy one. An unrepairable seed is rejected (never silently
	// wrong) and the greedy incumbent is used instead; see the Solver
	// IncumbentSeeded/IncumbentRepaired/IncumbentRejected counters.
	Seed *EdgeAssignment
	// Pool, when non-nil, supplies the solver's per-worker LP scratch arenas
	// (see miqp.ScratchPool); nil uses the package-level pool.
	Pool *miqp.ScratchPool
	// scratch, when non-nil, is the caller-owned model-build working storage
	// for this solve. The scheduler keeps one per fan-out worker so repeated
	// slot solves reuse it without contention; external callers leave it nil
	// and SolveEdge borrows from a package pool.
	scratch *edgeScratch
}

// EdgeAssignment is the per-edge solve result.
type EdgeAssignment struct {
	// Deployments have Edge set to EdgeIdx and BatchSizes filled per Mode.
	Deployments []edgesim.Deployment
	// Dropped[i] counts unserved requests of app i.
	Dropped []int
	// PredictedMS is the planned total execution time (Taylor-linearized).
	PredictedMS float64
	// OverflowMS is the planned amount beyond the slot.
	OverflowMS float64
	// Obj is the solver objective (loss + penalties).
	Obj float64
	// Nodes is the number of branch-and-bound nodes the solve used.
	Nodes int
	// Bottleneck names the tightest resource at the solution: "compute",
	// "memory", "bandwidth", or "none" (plenty of headroom everywhere).
	// Diagnostic only; see Utilizations for the raw numbers.
	Bottleneck string
	// Utilizations maps resource name → fraction of its budget used.
	Utilizations map[string]float64
	// Solver carries the branch & bound observability counters for this solve
	// (warm-start hit rate, pivot work, presolve reductions, incumbent
	// provenance). Diagnostic only.
	Solver miqp.Stats
}

// SolveEdge solves the per-edge program exactly via branch and bound.
func SolveEdge(p *EdgeProblem) (*EdgeAssignment, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	I := len(p.Apps)
	dropPen := p.DropPenalty
	if mat.Zero(dropPen) {
		dropPen = DefaultDropPenalty
	}
	ovPen := p.OverflowPenaltyPerMS
	if mat.Zero(ovPen) {
		ovPen = DefaultOverflowPenaltyPerMS
	}
	maxBatch := p.MaxBatch
	if maxBatch == 0 {
		maxBatch = DefaultMaxBatch
	}
	nodes := p.SolveNodes
	if nodes == 0 {
		nodes = 4000
	}

	es := p.scratch
	if es == nil {
		es = edgeScratchPool.Get().(*edgeScratch)
		defer edgeScratchPool.Put(es)
	}
	b := es.b
	b.Reset()
	// Flat (app, model) variable table replacing a per-call map: entry
	// vsOff[i]+j is valid iff app i has positive workload (vsAt guards).
	// Variables are unnamed on this path; names only ever served debugging
	// and cost a Sprintf per variable per slot.
	total := 0
	vsOff := growInts(es.vsOff, I+1)
	for i := 0; i < I; i++ {
		vsOff[i] = total
		total += len(p.Apps[i].Models)
	}
	vsOff[I] = total
	es.vsOff = vsOff
	vars := growVarSets(es.vars, total)
	es.vars = vars
	vsAt := func(i, j int) *varSet {
		if i < 0 || i >= I || p.Workload[i] <= 0 || j < 0 || j >= vsOff[i+1]-vsOff[i] {
			return nil
		}
		return &vars[vsOff[i]+j]
	}
	if cap(es.appCols) < I {
		es.appCols = make([][]int, I)
		es.appCoefs = make([][]float64, I)
	}
	appComputeCols := es.appCols[:I]
	appComputeCoefs := es.appCoefs[:I]
	for i := range appComputeCols {
		appComputeCols[i] = appComputeCols[i][:0]
		appComputeCoefs[i] = appComputeCoefs[i][:0]
	}
	es.appCols, es.appCoefs = appComputeCols, appComputeCoefs
	var curApp int
	addCompute := func(cols []int, coefs []float64) {
		appComputeCols[curApp] = append(appComputeCols[curApp], cols...)
		appComputeCoefs[curApp] = append(appComputeCoefs[curApp], coefs...)
	}
	weightCols := es.weightCols[:0]
	weightCoefs := es.weightCoefs[:0]
	actTerms := es.actTerms[:0]
	shipCols := es.shipCols[:0]
	shipCoefs := es.shipCoefs[:0]

	for i := 0; i < I; i++ {
		w := p.Workload[i]
		if w <= 0 {
			continue
		}
		curApp = i
		for j, m := range p.Apps[i].Models {
			par := p.Params(i, j)
			gamma := p.GammaMS(i, j)
			vs := &vars[vsOff[i]+j]
			*vs = varSet{model: m, par: par, gamma: gamma}
			x := b.AddBinary("")
			vs.x = x
			switch p.Mode {
			case ModeMerged:
				if p.KneeCap {
					// Paper-literal: one merged batch, b ≤ β̂ (Eq. 12), time
					// by the Eq. 24 tangent.
					ub := int(math.Min(par.Beta, float64(maxBatch)))
					if ub > w {
						ub = w
					}
					if ub < 1 {
						ub = 1
					}
					units := b.AddVar("", 0, float64(ub), true)
					vs.units = units
					vs.unitCap = ub
					vs.bStar = ub
					vs.served = units // served == batch size
					vs.slopeMS = gamma * (1 - par.Eta)
					vs.fixedMS = gamma * par.Eta
					// Coupling: b ≤ ub·x  (Eq. 4).
					b.AddLe([]int{units, x}, []float64{1, -float64(ub)}, 0)
					// Taylor-linearized compute (Eq. 24/25): slope·b + γη·x.
					addCompute([]int{units, x}, []float64{vs.slopeMS, gamma * par.Eta})
					// Memory: δ·x + μ·b (Eq. 6).
					weightCols = append(weightCols, x)
					weightCoefs = append(weightCoefs, m.WeightsMB)
					actTerms = append(actTerms, actTerm{units, m.IntermediateMB})
					break
				}
				// Multi-batch generalization: serve n requests as ⌈n/b*⌉
				// batches of size b* = min(maxBatch, memory cap, w);
				// per-request planned time is γ/TIR(b*) under the shaded
				// law. TIR is flat beyond the knee, so exceeding β̂ costs no
				// throughput while amortizing the per-deployment fixed term.
				bStar := maxBatch
				// Keep the activation block of one batch under half the edge
				// memory so several models' weights still fit beside it; the
				// TIR plateau makes larger batches nearly free to give up.
				if memCap := int((0.5*p.Edge.MemoryMB - m.WeightsMB) / m.IntermediateMB); bStar > memCap {
					bStar = memCap
				}
				if bStar > w {
					bStar = w
				}
				if bStar < 1 {
					bStar = 1
				}
				units := b.AddVar("", 0, float64(w), true)
				vs.units = units
				vs.unitCap = w
				vs.bStar = bStar
				vs.served = units
				vs.slopeMS = gamma / math.Max(par.TIR(float64(bStar)), 1)
				// Fixed term: ⌈n/b*⌉ quantization costs half a batch in
				// expectation; charge that per deployment.
				vs.fixedMS = 0.5 * vs.slopeMS * float64(bStar)
				b.AddLe([]int{units, x}, []float64{1, -float64(w)}, 0)
				addCompute([]int{units, x}, []float64{vs.slopeMS, vs.fixedMS})
				weightCols = append(weightCols, x)
				weightCoefs = append(weightCoefs, m.WeightsMB)
				// Peak activations: one b*-sized batch while executing.
				actTerms = append(actTerms, actTerm{x, m.IntermediateMB * float64(bStar)})
			case ModeSerial:
				// units = request count, executed one by one (TIR = 1).
				units := b.AddVar("", 0, float64(w), true)
				vs.units = units
				vs.unitCap = w
				vs.served = units
				b.AddLe([]int{units, x}, []float64{1, -float64(w)}, 0)
				addCompute([]int{units}, []float64{gamma})
				weightCols = append(weightCols, x)
				weightCoefs = append(weightCoefs, m.WeightsMB)
				actTerms = append(actTerms, actTerm{x, m.IntermediateMB})
			case ModeFixed:
				// units = number of B0-sized physical batches; served ≤ B0·units.
				maxBatches := (w + p.FixedB0 - 1) / p.FixedB0
				units := b.AddVar("", 0, float64(maxBatches), true)
				served := b.AddVar("", 0, float64(w), true)
				vs.units = units
				vs.unitCap = maxBatches
				vs.served = served
				b.AddLe([]int{served, units}, []float64{1, -float64(p.FixedB0)}, 0)
				b.AddLe([]int{units, x}, []float64{1, -float64(maxBatches)}, 0)
				// Each padded batch costs the full-B0 batch time.
				batchMS := par.BatchTime(gamma, float64(p.FixedB0))
				addCompute([]int{units}, []float64{batchMS})
				weightCols = append(weightCols, x)
				weightCoefs = append(weightCoefs, m.WeightsMB)
				actTerms = append(actTerms, actTerm{x, m.IntermediateMB * float64(p.FixedB0)})
			}
			// Objective: loss per served request (Eq. 10; the bilinear
			// loss·x·b collapses to loss·served under the Eq. 4 coupling).
			b.SetObj(vs.served, m.Loss)
			// Bandwidth for shipping a model not already resident.
			if !p.PrevDeployed[[2]int{i, j}] {
				shipCols = append(shipCols, x)
				shipCoefs = append(shipCoefs, m.CompressedMB)
			}
		}
	}

	// Per-app conservation: Σ_j served + dropped = workload.
	drops := growInts(es.drops, I)
	es.drops = drops
	for i := range drops {
		drops[i] = -1
	}
	for i := 0; i < I; i++ {
		w := p.Workload[i]
		if w <= 0 {
			continue
		}
		d := b.AddVar("", 0, float64(w), true)
		drops[i] = d
		b.SetObj(d, dropPen)
		cols := append(es.rowCols[:0], d)
		coefs := append(es.rowCoefs[:0], 1)
		for j := range p.Apps[i].Models {
			cols = append(cols, vsAt(i, j).served)
			coefs = append(coefs, 1)
		}
		b.AddEq(cols, coefs, float64(w))
		es.rowCols, es.rowCoefs = cols, coefs
		if p.SingleVersion {
			xs := es.rowCols[:0]
			ones := es.rowCoefs[:0]
			for j := range p.Apps[i].Models {
				xs = append(xs, vsAt(i, j).x)
				ones = append(ones, 1)
			}
			b.AddLe(xs, ones, 1)
			es.rowCols, es.rowCoefs = xs, ones
		}
	}

	// Soft compute budgets, one per SLO class (Eq. 8/25 generalized):
	// the executor runs tighter-SLO applications first, so everything with
	// SLO ≤ f must fit within f·τ. With the paper's uniform SLO = 1 this is
	// exactly the single Eq. 25 row. Each class gets its own overflow slack.
	classes := sloClassesInto(es.classes[:0], p.Apps, p.Workload)
	es.classes = classes
	classSlack := growInts(es.classSlack, len(classes))
	es.classSlack = classSlack
	for ci, f := range classes {
		sl := b.AddVar("", 0, math.Inf(1), false)
		b.SetObj(sl, ovPen)
		classSlack[ci] = sl
		cols := es.rowCols[:0]
		coefs := es.rowCoefs[:0]
		for i := 0; i < I; i++ {
			if p.Workload[i] <= 0 || p.Apps[i].SLO() > f+1e-12 {
				continue
			}
			cols = append(cols, appComputeCols[i]...)
			coefs = append(coefs, appComputeCoefs[i]...)
		}
		if len(cols) != 0 {
			cols = append(cols, sl)
			coefs = append(coefs, -1)
			b.AddLe(cols, coefs, f*p.SlotMS)
		}
		es.rowCols, es.rowCoefs = cols, coefs
	}
	slack := classSlack[len(classSlack)-1] // widest class = total overflow
	// Hard memory budget (Eq. 6, under the configured interpretation).
	if len(weightCols) > 0 {
		switch p.Mem {
		case MemSum:
			cols := append(es.rowCols[:0], weightCols...)
			coefs := append(es.rowCoefs[:0], weightCoefs...)
			for _, a := range actTerms {
				cols = append(cols, a.col)
				coefs = append(coefs, a.coef)
			}
			b.AddLe(cols, coefs, p.Edge.MemoryMB)
			es.rowCols, es.rowCoefs = cols, coefs
		default: // MemTimeSliced: Σ δ·x + each deployment's peak batch ≤ M.
			for _, a := range actTerms {
				cols := append(es.rowCols[:0], weightCols...)
				coefs := append(es.rowCoefs[:0], weightCoefs...)
				cols = append(cols, a.col)
				coefs = append(coefs, a.coef)
				b.AddLe(cols, coefs, p.Edge.MemoryMB)
				es.rowCols, es.rowCoefs = cols, coefs
			}
		}
	}
	// Hard model-shipping budget (Eq. 9 residue after request forwarding).
	if len(shipCols) > 0 {
		b.AddLe(shipCols, shipCoefs, p.ShipBudgetMB)
	}
	es.weightCols, es.weightCoefs = weightCols, weightCoefs
	es.actTerms = actTerms
	es.shipCols, es.shipCoefs = shipCols, shipCoefs

	// The problem aliases builder-owned storage reused across slots; it is
	// consumed entirely within this call (SolveOpts copies what it keeps).
	prob := b.BuildShared()
	// greedyFill completes point into an integer-feasible plan: it serves as
	// many of remaining's requests as the leftover budgets allow — best
	// models first within budgets, overflow when cheaper than dropping —
	// mutating point and remaining in place. Deployments already present in
	// point are respected and extended (their budget spends must be reflected
	// in the budget arguments; see budgetsOf), which is what lets the
	// temporal seed below keep last slot's deployment structure and still
	// serve newly arrived requests. Iteration is index-ordered and every
	// float accumulation has a fixed order, so the result is deterministic.
	greedyFill := func(point []float64, remaining []int, computeLeft, memLeft, maxAct, shipLeft float64) {
		overflow := 0.0
		// spendCompute books ms against the slot budget, spilling the excess
		// into the overflow slack so the incumbent always satisfies Eq. 25.
		spendCompute := func(ms float64) {
			if ms <= computeLeft {
				computeLeft -= ms
				return
			}
			overflow += ms - math.Max(computeLeft, 0)
			if computeLeft > 0 {
				computeLeft = 0
			}
		}
		_ = overflow
		for i := 0; i < I; i++ {
			if p.Workload[i] <= 0 {
				continue
			}
			rem := remaining[i]
			chosenJ := -1 // SingleVersion: first deployed version locks the app
			if p.SingleVersion {
				for j := range p.Apps[i].Models {
					if vs := vsAt(i, j); vs != nil && point[vs.x] > 0.5 {
						chosenJ = j
						break
					}
				}
			}
			order := growInts(es.order, len(p.Apps[i].Models))
			es.order = order
			for j := range order {
				order[j] = j
			}
			sortByLoss(order, p.Apps[i].Models)
			for pass := 0; pass < 2 && rem > 0; pass++ {
				for _, j := range order {
					if rem == 0 {
						break
					}
					if p.SingleVersion && chosenJ >= 0 && chosenJ != j {
						continue
					}
					vs := vsAt(i, j)
					m := vs.model
					already := point[vs.x] > 0.5
					shipCost := 0.0
					if !already && !p.PrevDeployed[[2]int{i, j}] {
						shipCost = m.CompressedMB
					}
					if shipCost > shipLeft {
						continue
					}
					switch p.Mode {
					case ModeMerged:
						room := vs.unitCap - int(point[vs.units])
						if room <= 0 {
							continue
						}
						fixMem := 0.0
						if !already {
							fixMem = m.WeightsMB
						}
						actBatch := m.IntermediateMB * float64(vs.bStar) // multi-batch peak
						var uMem int
						switch {
						case p.KneeCap && p.Mem == MemSum:
							uMem = int((memLeft - fixMem) / m.IntermediateMB)
						case p.KneeCap:
							// New weights must leave room for every prior
							// deployment's peak batch, and this deployment's
							// total batch must fit beside all weights.
							if memLeft-fixMem < maxAct {
								continue
							}
							uMem = int((memLeft-fixMem)/m.IntermediateMB) - int(point[vs.units])
						case p.Mem == MemSum:
							// Multi-batch: one constant b*-sized activation block.
							if !already && memLeft-fixMem < actBatch {
								continue
							}
							uMem = rem
						default:
							if !already && memLeft-fixMem < math.Max(maxAct, actBatch) {
								continue
							}
							uMem = rem
						}
						perReq := vs.slopeMS
						uCompute := room
						if pass == 0 {
							budget := computeLeft
							if !already {
								budget -= vs.fixedMS
							}
							uCompute = int(budget / math.Max(perReq, 1e-9))
						} else if perReq*ovPen >= dropPen {
							continue // overflow costs more than dropping
						}
						u := minInt(room, rem, uMem, uCompute)
						if u <= 0 {
							continue
						}
						if !already {
							memLeft -= m.WeightsMB
							shipLeft -= shipCost
							spendCompute(vs.fixedMS)
							point[vs.x] = 1
							chosenJ = j
							if !p.KneeCap {
								if p.Mem == MemSum {
									memLeft -= actBatch
								} else if actBatch > maxAct {
									maxAct = actBatch
								}
							}
						}
						point[vs.units] += float64(u)
						if p.KneeCap {
							if p.Mem == MemSum {
								memLeft -= m.IntermediateMB * float64(u)
							} else if act := m.IntermediateMB * point[vs.units]; act > maxAct {
								maxAct = act
							}
						}
						spendCompute(perReq * float64(u))
						rem -= u
					case ModeSerial:
						if pass > 0 && vs.gamma*ovPen >= dropPen {
							continue
						}
						fixMem := m.WeightsMB + m.IntermediateMB
						if p.Mem != MemSum {
							fixMem = m.WeightsMB
							if weightsAfter := fixMem; !already && memLeft-weightsAfter < math.Max(maxAct, m.IntermediateMB) {
								continue
							}
						}
						if !already && fixMem > memLeft {
							continue
						}
						uCompute := rem
						if pass == 0 {
							uCompute = int(computeLeft / math.Max(vs.gamma, 1e-9))
						}
						u := minInt(rem, vs.unitCap-int(point[vs.units]), uCompute)
						if u <= 0 {
							continue
						}
						if !already {
							memLeft -= fixMem
							shipLeft -= shipCost
							point[vs.x] = 1
							chosenJ = j
							if p.Mem != MemSum && m.IntermediateMB > maxAct {
								maxAct = m.IntermediateMB
							}
						}
						point[vs.units] += float64(u)
						spendCompute(vs.gamma * float64(u))
						rem -= u
					case ModeFixed:
						batchMS := vs.par.BatchTime(vs.gamma, float64(p.FixedB0))
						if pass > 0 && batchMS*ovPen/float64(p.FixedB0) >= dropPen {
							continue
						}
						act := m.IntermediateMB * float64(p.FixedB0)
						fixMem := m.WeightsMB + act
						if p.Mem != MemSum {
							fixMem = m.WeightsMB
							if !already && memLeft-fixMem < math.Max(maxAct, act) {
								continue
							}
						}
						if !already && fixMem > memLeft {
							continue
						}
						for rem > 0 && int(point[vs.units]) < vs.unitCap {
							if pass == 0 && batchMS > computeLeft {
								break
							}
							if !already {
								memLeft -= fixMem
								shipLeft -= shipCost
								point[vs.x] = 1
								chosenJ = j
								already = true
								if p.Mem != MemSum && act > maxAct {
									maxAct = act
								}
							}
							point[vs.units]++
							take := minInt(rem, p.FixedB0)
							point[vs.served] += float64(take)
							rem -= take
							spendCompute(batchMS)
						}
					}
				}
			}
			remaining[i] = rem
		}
	}

	// budgetsOf recomputes the leftover budgets a partially built point
	// leaves for greedyFill, mirroring its bookkeeping exactly: per-mode
	// planned compute, resident weights (plus activations under MemSum),
	// the peak single-deployment activation (MemTimeSliced), and shipping
	// for deployments not already resident. Index-ordered accumulation.
	budgetsOf := func(point []float64) (computeLeft, memLeft, maxAct, shipLeft float64) {
		computeLeft, memLeft, maxAct, shipLeft = p.SlotMS, p.Edge.MemoryMB, 0, p.ShipBudgetMB
		for i := 0; i < I; i++ {
			if p.Workload[i] <= 0 {
				continue
			}
			for j := range p.Apps[i].Models {
				vs := vsAt(i, j)
				if point[vs.x] < 0.5 {
					continue
				}
				m := vs.model
				units := point[vs.units]
				switch p.Mode {
				case ModeMerged:
					computeLeft -= vs.slopeMS*units + vs.fixedMS
				case ModeSerial:
					computeLeft -= vs.gamma * units
				case ModeFixed:
					computeLeft -= vs.par.BatchTime(vs.gamma, float64(p.FixedB0)) * units
				}
				memLeft -= m.WeightsMB
				if !p.PrevDeployed[[2]int{i, j}] {
					shipLeft -= m.CompressedMB
				}
				var act float64
				switch {
				case p.Mode == ModeMerged && p.KneeCap:
					act = m.IntermediateMB * units
				case p.Mode == ModeMerged:
					act = m.IntermediateMB * float64(vs.bStar)
				case p.Mode == ModeSerial:
					act = m.IntermediateMB
				default: // ModeFixed
					act = m.IntermediateMB * float64(p.FixedB0)
				}
				if p.Mem == MemSum {
					memLeft -= act
				} else if act > maxAct {
					maxAct = act
				}
			}
		}
		if computeLeft < 0 {
			computeLeft = 0
		}
		return
	}

	// Seed a greedy incumbent: it is feasible by construction, usually
	// optimal or near, and collapses the search — without it, branching on
	// the fixed-charge x variables barely moves the LP bound and the tree
	// explodes.
	inc := growFloatsZero(es.inc, b.NumVars())
	es.inc = inc
	remaining := growInts(es.incRem, I)
	es.incRem = remaining
	copy(remaining, p.Workload)
	greedyFill(inc, remaining, p.SlotMS, p.Edge.MemoryMB, 0, p.ShipBudgetMB)
	for i := 0; i < I; i++ {
		if drops[i] >= 0 {
			inc[drops[i]] = float64(remaining[i])
		}
	}
	// setClassSlacks sets each class slack exactly from the point's planned
	// spends so a candidate incumbent satisfies every nested budget row.
	// Iterate (i, j) in order, not over the vars map: float addition is
	// order-sensitive and the incumbent must be identical run to run.
	setClassSlacks := func(point []float64) {
		for ci, f := range classes {
			var lhs float64
			for i := 0; i < I; i++ {
				if p.Workload[i] <= 0 || p.Apps[i].SLO() > f+1e-12 {
					continue
				}
				for j := range p.Apps[i].Models {
					vs := vsAt(i, j)
					units := point[vs.units]
					xv := point[vs.x]
					switch p.Mode {
					case ModeMerged:
						lhs += vs.slopeMS*units + vs.fixedMS*xv
					case ModeSerial:
						lhs += vs.gamma * units
					case ModeFixed:
						lhs += vs.par.BatchTime(vs.gamma, float64(p.FixedB0)) * units
					}
				}
			}
			point[classSlack[ci]] = 0
			if over := lhs - f*p.SlotMS; over > 0 {
				point[classSlack[ci]] = over
			}
		}
	}
	setClassSlacks(inc)

	// Temporal incumbent seeding: rebuild the previous slot's assignment
	// against this slot's problem — clamp every deployment to the new
	// workloads and caps, spill the overflow onto the drop variables, set the
	// class slacks exactly — then validate the repaired point against all
	// rows. A valid seed that beats the greedy incumbent replaces it; an
	// invalid one is rejected outright, so the solve is never entered under a
	// bound a stale plan cannot certify. Pure function of (Seed, problem):
	// deterministic across runs and worker counts.
	repairSeed := func() (point []float64, didRepair, ok bool) {
		point = growFloatsZero(es.seedPoint, b.NumVars())
		es.seedPoint = point
		remaining := growInts(es.seedRem, I)
		es.seedRem = remaining
		copy(remaining, p.Workload)
		for _, dep := range p.Seed.Deployments {
			vs := vsAt(dep.App, dep.Version)
			if vs == nil || dep.Requests <= 0 {
				if dep.Requests > 0 {
					didRepair = true // app lost its workload here; requests fall to drops
				}
				continue
			}
			i := dep.App
			take := dep.Requests
			if take > remaining[i] {
				take, didRepair = remaining[i], true
			}
			switch p.Mode {
			case ModeMerged, ModeSerial:
				// units counts served requests (KneeCap: the single merged
				// batch size, additionally capped at the knee/memory bound).
				if room := vs.unitCap - int(point[vs.units]); take > room {
					take, didRepair = room, true
				}
				if take <= 0 {
					continue
				}
				point[vs.x] = 1
				point[vs.units] += float64(take)
			case ModeFixed:
				nb := (take + p.FixedB0 - 1) / p.FixedB0
				if room := vs.unitCap - int(point[vs.units]); nb > room {
					nb, didRepair = room, true
					if fit := nb * p.FixedB0; take > fit {
						take = fit
					}
				}
				if nb <= 0 || take <= 0 {
					continue
				}
				point[vs.x] = 1
				point[vs.units] += float64(nb)
				point[vs.served] += float64(take)
			}
			remaining[i] -= take
		}
		// Greedy completion: the clamp above only shrinks the seed, so on its
		// own the rebuilt point drops every newly arrived request — and with
		// drops heavily penalized it would almost never beat the from-scratch
		// greedy incumbent, making the seed useless. Re-running the greedy
		// fill on top of the clamped point serves the new arrivals under the
		// leftover budgets while keeping last slot's deployment structure.
		computeLeft, memLeft, maxAct, shipLeft := budgetsOf(point)
		greedyFill(point, remaining, computeLeft, memLeft, maxAct, shipLeft)
		for i := 0; i < I; i++ {
			if drops[i] < 0 {
				continue
			}
			point[drops[i]] = float64(remaining[i])
			if i < len(p.Seed.Dropped) && p.Seed.Dropped[i] != remaining[i] {
				didRepair = true
			}
		}
		setClassSlacks(point)
		if miqp.ValidateIncumbent(prob, point) != nil {
			return nil, didRepair, false
		}
		return point, didRepair, true
	}
	var seeded, repaired, rejected int
	if p.Seed != nil {
		seed, didRepair, ok := repairSeed()
		switch {
		case !ok:
			rejected = 1
		case objOf(prob, seed) < objOf(prob, inc):
			inc = seed
			seeded = 1
			if didRepair {
				repaired = 1
			}
		}
	}
	res, err := miqp.SolveOpts(prob, miqp.Options{
		MaxNodes:  nodes,
		Incumbent: inc,
		// A 0.5% relative gap is far below the run-to-run noise of the
		// simulator and cuts the proof-of-optimality tail off the search.
		GapTol:  0.005 * (1 + objOf(prob, inc)),
		Workers: p.Workers,
		Pool:    p.Pool,
	})
	if err != nil {
		return nil, fmt.Errorf("core: edge %d solve: %w", p.EdgeIdx, err)
	}
	if res.X == nil {
		return nil, fmt.Errorf("core: edge %d: solver returned no incumbent (status %v)", p.EdgeIdx, res.Status)
	}

	out := &EdgeAssignment{Dropped: make([]int, I), Obj: res.Obj, Nodes: res.Nodes, Solver: res.Stats}
	out.Solver.IncumbentSeeded = seeded
	out.Solver.IncumbentRepaired = repaired
	out.Solver.IncumbentRejected = rejected
	for i := 0; i < I; i++ {
		if drops[i] >= 0 {
			out.Dropped[i] = int(math.Round(res.X[drops[i]]))
		}
	}
	out.OverflowMS = res.X[slack]
	// Extract deployments in (app, version) order so the plan — and the float
	// accumulation into PredictedMS — is deterministic.
	for i := 0; i < I; i++ {
		if p.Workload[i] <= 0 {
			continue
		}
		for j := range p.Apps[i].Models {
			vs := vsAt(i, j)
			served := int(math.Round(res.X[vs.served]))
			units := int(math.Round(res.X[vs.units]))
			if served <= 0 {
				continue
			}
			dep := edgesim.Deployment{
				App: i, Version: j, Edge: p.EdgeIdx, Requests: served,
			}
			switch p.Mode {
			case ModeMerged:
				if p.KneeCap || served <= vs.bStar {
					dep.BatchSizes = []int{served}
				} else {
					for left := served; left > 0; left -= vs.bStar {
						bsz := vs.bStar
						if left < bsz {
							bsz = left
						}
						dep.BatchSizes = append(dep.BatchSizes, bsz)
					}
				}
				out.PredictedMS += vs.slopeMS*float64(served) + vs.fixedMS
			case ModeSerial:
				dep.BatchSizes = make([]int, served)
				for q := range dep.BatchSizes {
					dep.BatchSizes[q] = 1
				}
				out.PredictedMS += vs.gamma * float64(served)
			case ModeFixed:
				dep.BatchSizes = make([]int, units)
				for q := range dep.BatchSizes {
					dep.BatchSizes[q] = p.FixedB0
				}
				out.PredictedMS += vs.par.BatchTime(vs.gamma, float64(p.FixedB0)) * float64(units)
			}
			out.Deployments = append(out.Deployments, dep)
		}
	}

	// Diagnostic: how much of each budget the plan consumes, and which one
	// binds. Memory usage is recomputed per the configured model.
	var memUsed, shipUsed float64
	maxAct2 := 0.0
	for i := 0; i < I; i++ {
		if p.Workload[i] <= 0 {
			continue
		}
		for j := range p.Apps[i].Models {
			vs := vsAt(i, j)
			if res.X[vs.x] < 0.5 {
				continue
			}
			m := vs.model
			// Each (i, j) owns a distinct x column, so weights/ship are
			// counted once per deployment.
			memUsed += m.WeightsMB
			if !p.PrevDeployed[[2]int{i, j}] {
				shipUsed += m.CompressedMB
			}
			act := 0.0
			switch p.Mode {
			case ModeMerged:
				if p.KneeCap {
					act = m.IntermediateMB * res.X[vs.units]
				} else {
					act = m.IntermediateMB * float64(vs.bStar)
				}
			case ModeSerial:
				act = m.IntermediateMB
			case ModeFixed:
				act = m.IntermediateMB * float64(p.FixedB0)
			}
			if p.Mem == MemSum {
				memUsed += act
			} else if act > maxAct2 {
				maxAct2 = act
			}
		}
	}
	memUsed += maxAct2
	out.Utilizations = map[string]float64{
		"compute":   out.PredictedMS / p.SlotMS,
		"memory":    memUsed / p.Edge.MemoryMB,
		"bandwidth": safeFrac(shipUsed, p.ShipBudgetMB),
	}
	out.Bottleneck = "none"
	worstU := 0.85 // below this nothing is considered binding
	for _, name := range []string{"compute", "memory", "bandwidth"} {
		if u := out.Utilizations[name]; u > worstU {
			worstU = u
			out.Bottleneck = name
		}
	}
	return out, nil
}

func safeFrac(used, budget float64) float64 {
	if budget <= 0 {
		if used > 0 {
			return 1
		}
		return 0
	}
	return used / budget
}

// sloClasses returns the distinct SLO fractions of the applications with
// positive workload, ascending (at least one class, 1.0, when none).
func sloClasses(apps []*models.Application, workload []int) []float64 {
	return sloClassesInto(nil, apps, workload)
}

// sloClassesInto is sloClasses appending into dst (allocation-free once dst
// has capacity). There are only ever a handful of classes, so the dedupe is
// a linear scan.
func sloClassesInto(dst []float64, apps []*models.Application, workload []int) []float64 {
	out := dst[:0]
	for i, a := range apps {
		if i < len(workload) && workload[i] <= 0 {
			continue
		}
		f := a.SLO()
		dup := false
		for _, g := range out {
			// SLO fractions compare exactly: the dedupe must treat two apps
			// with the same configured fraction as one class.
			//birplint:ignore floateq
			if g == f {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		out = append(out, 1)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// sortByLoss orders model indices by ascending loss (best models first).
func sortByLoss(order []int, ms []*models.Model) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && ms[order[j]].Loss < ms[order[j-1]].Loss; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

func minInt(vals ...int) int {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// objOf evaluates a linear objective at x (the edge programs have no Q).
func objOf(p *miqp.Problem, x []float64) float64 {
	var s float64
	for j, c := range p.C {
		s += c * x[j]
	}
	return math.Abs(s)
}

func (p *EdgeProblem) validate() error {
	if p.Edge == nil {
		return fmt.Errorf("core: EdgeProblem without edge")
	}
	if len(p.Workload) != len(p.Apps) {
		return fmt.Errorf("core: workload length %d, want %d apps", len(p.Workload), len(p.Apps))
	}
	if p.Params == nil || p.GammaMS == nil {
		return fmt.Errorf("core: EdgeProblem needs Params and GammaMS")
	}
	if p.SlotMS <= 0 {
		return fmt.Errorf("core: non-positive slot duration %v", p.SlotMS)
	}
	if p.Mode == ModeFixed && p.FixedB0 <= 0 {
		return fmt.Errorf("core: ModeFixed requires positive FixedB0")
	}
	for i, w := range p.Workload {
		if w < 0 {
			return fmt.Errorf("core: negative workload %d for app %d", w, i)
		}
	}
	return nil
}

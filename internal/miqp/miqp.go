// Package miqp solves small mixed-integer linear programs with best-first
// branch and bound:
//
//	minimize    cᵀx
//	subject to  Aeq·x  = beq
//	            Aub·x ≤ bub
//	            lb ≤ x ≤ ub                      (finite for integer variables)
//	            x[j] ∈ ℤ   for j with Integer[j]
//
// Continuous relaxations are solved with package lp; branching splits on the
// most fractional integer variable. This is the drop-in substitute for the
// Gurobi MIQP calls in the BIRP paper: every per-slot model is linearized
// (big-M couplings, and x·b collapsed through Eq. 4), so no quadratic term
// reaches the solver. The instances are small (tens of binaries), so exact
// enumeration with bound pruning is fast and — unlike a heuristic — provably
// returns the optimum the paper's pipeline assumes.
package miqp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/lp"
	"repro/internal/mat"
	"repro/internal/par"
)

// Status describes the solve outcome.
type Status int

const (
	// StatusOptimal means the incumbent is optimal within the gap tolerance.
	StatusOptimal Status = iota
	// StatusInfeasible means no integer-feasible point exists.
	StatusInfeasible
	// StatusNodeLimit means the node budget was exhausted; if X is non-nil it
	// is the best incumbent found.
	StatusNodeLimit
	// StatusUnbounded means the root relaxation is unbounded below.
	StatusUnbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusNodeLimit:
		return "node-limit"
	case StatusUnbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrBadProblem reports malformed input.
var ErrBadProblem = errors.New("miqp: malformed problem")

// validateRows checks the constraint matrices once per solve: row lengths
// match the variable count and no coefficient or rhs is NaN. The node
// relaxations then solve with lp.Options.AssumeValid, which moves this scan
// from once-per-node (hundreds of thousands across a branch & bound run) to
// once-per-problem while keeping the same typed error for malformed input.
func validateRows(p *Problem, n int) error {
	for _, v := range p.C {
		if math.IsNaN(v) {
			return fmt.Errorf("%w: NaN objective coefficient", ErrBadProblem)
		}
	}
	if len(p.Aeq) != len(p.Beq) {
		return fmt.Errorf("%w: %d equality rows but %d rhs entries", ErrBadProblem, len(p.Aeq), len(p.Beq))
	}
	if len(p.Aub) != len(p.Bub) {
		return fmt.Errorf("%w: %d inequality rows but %d rhs entries", ErrBadProblem, len(p.Aub), len(p.Bub))
	}
	scan := func(a [][]float64, b []float64, what string) error {
		for i, row := range a {
			if len(row) != n {
				return fmt.Errorf("%w: %s row %d has %d cols, want %d", ErrBadProblem, what, i, len(row), n)
			}
			for _, v := range row {
				if math.IsNaN(v) {
					return fmt.Errorf("%w: NaN in %s row %d", ErrBadProblem, what, i)
				}
			}
			if math.IsNaN(b[i]) {
				return fmt.Errorf("%w: NaN rhs in %s row %d", ErrBadProblem, what, i)
			}
		}
		return nil
	}
	if err := scan(p.Aeq, p.Beq, "Aeq"); err != nil {
		return err
	}
	return scan(p.Aub, p.Bub, "Aub")
}

// ErrInfeasibleIncumbent reports that Options.Incumbent violates the
// problem's constraints. An infeasible incumbent is worse than none: its
// objective becomes the pruning bound and silently cuts off the true optimum,
// so SolveOpts rejects it with this error instead of searching under it.
var ErrInfeasibleIncumbent = errors.New("miqp: infeasible incumbent")

// incFeasTol is the relative feasibility tolerance of ValidateIncumbent.
// Incumbents are typically assembled with a different floating-point
// summation order than the row evaluation below, so exact equality is not
// achievable; 1e-6 is far looser than that drift and far tighter than any
// violation that could mislead the bound.
const incFeasTol = 1e-6

// ValidateIncumbent checks that x is an integer-feasible point of p: inside
// the variable bounds, integral on the integer variables, and satisfying
// every equality and inequality row within a small relative tolerance. It
// returns nil when feasible and an error wrapping ErrInfeasibleIncumbent
// naming the first violated bound or row otherwise.
func ValidateIncumbent(p *Problem, x []float64) error {
	n := len(p.C)
	if len(x) != n {
		return fmt.Errorf("%w: length %d, want %d", ErrInfeasibleIncumbent, len(x), n)
	}
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite value at variable %d", ErrInfeasibleIncumbent, j)
		}
		lb, ub := 0.0, math.Inf(1)
		if p.Lb != nil {
			lb = p.Lb[j]
		}
		if p.Ub != nil {
			ub = p.Ub[j]
		}
		scale := incFeasTol * (1 + math.Abs(v))
		if v < lb-scale || v > ub+scale {
			return fmt.Errorf("%w: variable %d = %g outside [%g, %g]", ErrInfeasibleIncumbent, j, v, lb, ub)
		}
		if p.Integer != nil && p.Integer[j] && math.Abs(v-math.Round(v)) > 1e-6 {
			return fmt.Errorf("%w: integer variable %d = %g not integral", ErrInfeasibleIncumbent, j, v)
		}
	}
	rowAt := func(row []float64) (lhs, scale float64) {
		scale = 1
		for j, a := range row {
			t := a * x[j]
			lhs += t
			scale += math.Abs(t)
		}
		return lhs, scale
	}
	for i, row := range p.Aeq {
		lhs, scale := rowAt(row)
		if math.Abs(lhs-p.Beq[i]) > incFeasTol*(scale+math.Abs(p.Beq[i])) {
			return fmt.Errorf("%w: equality row %d: lhs %g != rhs %g", ErrInfeasibleIncumbent, i, lhs, p.Beq[i])
		}
	}
	for i, row := range p.Aub {
		lhs, scale := rowAt(row)
		if lhs > p.Bub[i]+incFeasTol*(scale+math.Abs(p.Bub[i])) {
			return fmt.Errorf("%w: inequality row %d: lhs %g > rhs %g", ErrInfeasibleIncumbent, i, lhs, p.Bub[i])
		}
	}
	return nil
}

// Problem is a mixed-integer linear program. Nil slices mean "absent".
type Problem struct {
	C       []float64
	Aeq     [][]float64
	Beq     []float64
	Aub     [][]float64
	Bub     []float64
	Lb      []float64 // nil means all zeros
	Ub      []float64 // nil means all +Inf (illegal for integer variables)
	Integer []bool    // nil means all continuous
}

// Result is the solver outcome.
type Result struct {
	Status Status
	X      []float64
	Obj    float64
	Nodes  int     // number of branch-and-bound nodes solved
	Gap    float64 // |best bound − incumbent| at termination (0 when proven optimal)
	// Stats carries the solver observability counters (warm-start hit rate,
	// pivot work, presolve reductions). Deterministic across worker counts.
	Stats Stats
}

// Options tunes the search.
type Options struct {
	MaxNodes int     // 0 means 200000
	IntTol   float64 // integrality tolerance; 0 means 1e-6
	GapTol   float64 // absolute optimality gap tolerance; 0 means 1e-7
	// Incumbent, when non-nil, is a known integer-feasible starting point.
	// It seeds the upper bound for pruning and guarantees the solver always
	// returns a solution even when MaxNodes is exhausted. SolveOpts validates
	// it with ValidateIncumbent and rejects an infeasible point with an error
	// wrapping ErrInfeasibleIncumbent — an unchecked bad incumbent would
	// silently prune the true optimum.
	Incumbent []float64
	// Pool, when non-nil, supplies the per-worker lp.Scratch arenas instead of
	// the package-level sync.Pool. A caller-owned pool survives GC cycles
	// between slots, keeping the slot loop's allocation profile flat.
	Pool *ScratchPool
	// Workers caps the number of concurrent relaxation solves. Values ≤ 1
	// mean serial. The search is batch-synchronous: each round pops a fixed
	// batch of frontier nodes in a deterministic total order, solves their
	// (pure) relaxations concurrently, and merges the outcomes sequentially
	// in batch order — so the result is bit-identical for every worker
	// count; Workers only changes wall-clock time.
	Workers int
	// DisableWarmStart forces every relaxation to solve from a cold start
	// instead of re-entering from the parent node's basis. Warm starting is on
	// by default; this switch exists for A/B measurement and debugging.
	DisableWarmStart bool
	// DisablePresolve skips the pre-root bound-implication pass and the
	// root reduced-cost bound tightening.
	DisablePresolve bool
	// NoFactorReuse forwards lp.Options.NoFactorReuse: warm re-entries always
	// refactorize instead of loading the parent basis's captured LU. Reference
	// path for the equivalence tests — solutions and node/pivot counts are
	// identical either way; only Stats.Refactorizations/FactorReuses move.
	NoFactorReuse bool
}

// relaxBatch is the number of frontier nodes expanded per batch-synchronous
// round. It is a fixed constant — deliberately NOT derived from Workers — so
// the search trajectory, and therefore the returned solution, never depends
// on the degree of parallelism.
const relaxBatch = 8

// Solve runs branch and bound with default options.
func Solve(p *Problem) (*Result, error) { return SolveOpts(p, Options{}) }

type node struct {
	lb, ub []float64
	bound  float64 // relaxation objective at the parent (lower bound)
	depth  int
	// id is the creation sequence number. Children are always pushed during
	// the sequential merge phase, so ids are deterministic; they complete the
	// heap order into a total order and break incumbent ties.
	id uint64
	// basis is the parent relaxation's optimal simplex basis (nil at the root
	// or when warm starting is off). A child differs from its parent by one
	// variable bound, so re-entering from this basis usually needs a handful
	// of pivots instead of a full two-phase solve.
	basis *lp.Basis
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }

// Less orders by best bound, breaking ties toward deeper nodes so the search
// plunges to integer-feasible leaves instead of breadth-thrashing. The final
// id tie-break makes the order total, so pops are deterministic even when
// bounds and depths coincide.
func (h nodeHeap) Less(i, j int) bool {
	// Comparators need an exact total order; a tolerance here would make
	// the heap order intransitive.
	//birplint:ignore floateq
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	if h[i].depth != h[j].depth {
		return h[i].depth > h[j].depth
	}
	return h[i].id < h[j].id
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// SolveOpts runs branch and bound.
func SolveOpts(p *Problem, opt Options) (*Result, error) {
	n := len(p.C)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty objective", ErrBadProblem)
	}
	if p.Integer != nil && len(p.Integer) != n {
		return nil, fmt.Errorf("%w: Integer length %d, want %d", ErrBadProblem, len(p.Integer), n)
	}
	if p.Lb != nil && len(p.Lb) != n {
		return nil, fmt.Errorf("%w: Lb length", ErrBadProblem)
	}
	if p.Ub != nil && len(p.Ub) != n {
		return nil, fmt.Errorf("%w: Ub length", ErrBadProblem)
	}
	// Scan the constraint data once up front; every relaxation below runs
	// with lp.Options.AssumeValid, so nothing re-checks per node.
	if err := validateRows(p, n); err != nil {
		return nil, err
	}
	// Per-tree reusable storage: from the caller's pool when supplied (keeps
	// the slot loop's allocation profile flat across GC cycles), else the
	// package pool.
	var ts *treeState
	if opt.Pool != nil {
		ts = opt.Pool.getTree()
		defer opt.Pool.putTree(ts)
	} else {
		ts = treePool.Get().(*treeState)
		defer treePool.Put(ts)
	}
	ts.nodesUsed = 0
	lb := growFloats(ts.lb, n)
	ub := growFloats(ts.ub, n)
	ts.lb, ts.ub = lb, ub
	for j := 0; j < n; j++ {
		lb[j] = 0
		ub[j] = math.Inf(1)
		if p.Lb != nil {
			lb[j] = p.Lb[j]
		}
		if p.Ub != nil {
			ub[j] = p.Ub[j]
		}
		if lb[j] > ub[j] {
			return nil, fmt.Errorf("%w: crossed bounds on variable %d", ErrBadProblem, j)
		}
		if p.Integer != nil && p.Integer[j] {
			if math.IsInf(lb[j], 0) || math.IsInf(ub[j], 0) {
				return nil, fmt.Errorf("%w: integer variable %d must have finite bounds", ErrBadProblem, j)
			}
			lb[j] = math.Ceil(lb[j] - 1e-9)
			ub[j] = math.Floor(ub[j] + 1e-9)
			if lb[j] > ub[j] {
				return &Result{Status: StatusInfeasible}, nil
			}
		}
	}
	intTol := opt.IntTol
	if mat.Zero(intTol) {
		intTol = 1e-6
	}
	gapTol := opt.GapTol
	if mat.Zero(gapTol) {
		gapTol = 1e-7
	}
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200000
	}

	res := &Result{Status: StatusInfeasible, Obj: math.Inf(1)}
	var incumbent []float64
	var incumbentID uint64 // id of the node that produced the incumbent (0 = seeded)
	bestBound := math.Inf(-1)
	if opt.Incumbent != nil {
		if len(opt.Incumbent) != n {
			return nil, fmt.Errorf("%w: incumbent length %d, want %d", ErrBadProblem, len(opt.Incumbent), n)
		}
		if err := ValidateIncumbent(p, opt.Incumbent); err != nil {
			return nil, err
		}
		incumbent = clone(opt.Incumbent)
		res.Obj = evalObj(p, incumbent)
		res.Status = StatusOptimal
	}

	// Pre-root presolve: tighten integer boxes from single-row implications
	// and drop redundant rows. The node loop then solves the reduced problem
	// pp; the caller's p is never mutated (and the incumbent — an integer
	// point satisfying all original rows — survives every reduction).
	pp := p
	if !opt.DisablePresolve {
		info := presolve(p, lb, ub, ts)
		res.Stats.PresolveFixedVars = info.fixed
		res.Stats.PresolveTightenedBounds = info.tightened
		res.Stats.PresolveRemovedRows = info.removed
		if info.infeasible {
			if incumbent != nil {
				// The incumbent was validated feasible above; a presolve
				// infeasibility proof then means no strictly better point
				// exists, so the incumbent is the answer (this mirrors the
				// node loop's exhausted-frontier exit).
				res.X = incumbent
				res.Status = StatusOptimal
				return res, nil
			}
			res.Status = StatusInfeasible
			return res, nil
		}
		if info.aub != nil {
			ts.reduced = *p
			ts.reduced.Aub = info.aub
			ts.reduced.Bub = info.bub
			pp = &ts.reduced
		}
	}

	warmOK := !opt.DisableWarmStart

	// Compile the relaxation LP's standard form once per tree: every node
	// below shares pp's matrices and only tightens bounds, so the coefficient
	// transform is loop-invariant. A compile failure (possible only for inputs
	// validateRows cannot see, e.g. NaN bounds) just leaves the per-node path
	// building its own standard form, exactly as before.
	var form *lp.Form
	// Recycling ts.form is safe because every factor snapshot keyed to its
	// compiled matrix died with the tree that captured it (BeginTree below).
	if f, err := lp.NewFormReuse(ts.form, &lp.Problem{
		C: pp.C, Aeq: pp.Aeq, Beq: pp.Beq, Aub: pp.Aub, Bub: pp.Bub, Lb: lb, Ub: ub,
	}); err == nil {
		form = f
		ts.form = f
	}

	root := &ts.root
	root.lb, root.ub = lb, ub
	root.bound = math.Inf(-1)
	root.depth = 0
	root.id = 1
	root.basis = nil
	ts.heap = append(ts.heap[:0], root)
	h := &ts.heap
	heap.Init(h)
	nextID := uint64(2)
	// Root reduced-cost tightening needs the root solve to report reduced
	// costs; only worthwhile once an upper bound (incumbent) exists.
	rootRC := !opt.DisablePresolve && incumbent != nil

	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > relaxBatch {
		workers = relaxBatch
	}
	// A pool wider than the schedulable CPUs only adds goroutine/merge
	// overhead (results are pool-width independent, so this is free).
	workers = par.CapWorkers(workers)
	if cap(ts.scratches) < workers {
		ts.scratches = make([]*lp.Scratch, workers)
	}
	scratches := ts.scratches[:workers]
	for w := range scratches {
		if opt.Pool != nil {
			scratches[w] = opt.Pool.Get()
		} else {
			scratches[w] = lpScratchPool.Get().(*lp.Scratch)
		}
		// Recycle the factor-snapshot arena: every basis captured on this
		// scratch by a previous tree is dead.
		scratches[w].BeginTree()
	}
	defer func() {
		for _, sc := range scratches {
			if opt.Pool != nil {
				opt.Pool.Put(sc)
			} else {
				lpScratchPool.Put(sc)
			}
		}
	}()
	if cap(ts.batch) < relaxBatch {
		ts.batch = make([]*node, 0, relaxBatch)
	}
	batch := ts.batch[:0]
	if cap(ts.relaxes) < relaxBatch {
		ts.relaxes = make([]relaxResult, relaxBatch)
	}
	relaxes := ts.relaxes[:relaxBatch]

	for h.Len() > 0 {
		if res.Nodes >= maxNodes {
			res.Status = StatusNodeLimit
			res.Gap = math.Abs(res.Obj - bestBound)
			if incumbent != nil {
				res.X = incumbent
			}
			return res, nil
		}
		// Assemble this round's batch by popping the frontier in its
		// deterministic total order, honoring the node budget.
		batch = batch[:0]
		limit := relaxBatch
		if b := maxNodes - res.Nodes; limit > b {
			limit = b
		}
		for len(batch) < limit && h.Len() > 0 {
			nd := heap.Pop(h).(*node)
			if nd.bound >= res.Obj-gapTol {
				continue // pruned by bound
			}
			batch = append(batch, nd)
		}
		if len(batch) == 0 {
			break // frontier fully pruned
		}
		res.Nodes += len(batch)
		res.Stats.Nodes += len(batch)
		// Relaxations are pure functions of (problem, node bounds, parent
		// basis): solve the batch concurrently, then merge sequentially so the
		// search state evolves identically for every worker count.
		if err := par.ForEach(workers, len(batch), func(w, i int) error {
			nd := batch[i]
			var warm *lp.Basis
			if warmOK {
				warm = nd.basis
			}
			// Dual re-entry dispatch: a warm basis always came from the node's
			// parent in this same tree — identical costs and matrices, bounds
			// only tightened — which is exactly the dual-feasible re-entry
			// state the revised engine's PreferDual contract needs.
			var err error
			relaxes[i], err = solveRelaxation(pp, form, nd.lb, nd.ub, scratches[w], warm, warmOK,
				rootRC && nd.depth == 0, warm != nil, opt.NoFactorReuse)
			return err
		}); err != nil {
			return nil, err
		}
		// Aggregate solver counters in batch order (deterministic), including
		// for nodes a same-batch incumbent later prunes — their relaxations
		// were solved regardless.
		for i := range batch {
			r := &relaxes[i]
			res.Stats.Relaxations++
			res.Stats.Pivots += r.pivots
			res.Stats.DualPivots += r.dualPivots
			res.Stats.Refactorizations += r.refactorizations
			res.Stats.EtaLength += r.etaLen
			res.Stats.FactorReuses += r.factorReuses
			if r.dualReentry {
				res.Stats.DualReentries++
			}
			if r.warmAttempted {
				res.Stats.WarmAttempts++
				if r.warmFellBack {
					res.Stats.WarmFallbacks++
				} else {
					res.Stats.WarmHits++
				}
			}
		}
		for i, nd := range batch {
			relax := relaxes[i]
			if nd.bound >= res.Obj-gapTol {
				continue // pruned by an earlier batch member's incumbent
			}
			switch relax.status {
			case relaxInfeasible:
				continue
			case relaxUnbounded:
				if nd.depth == 0 && incumbent == nil {
					return &Result{Status: StatusUnbounded, Nodes: res.Nodes}, nil
				}
				// A child relaxation cannot be unbounded if the root was bounded
				// (children have tighter bounds); treat defensively as no-prune.
				continue
			case relaxFailed:
				// Numerical failure: branch anyway using the parent bound, unless
				// nothing remains to branch on. Children restart cold (nil
				// basis): the failed solve produced nothing to re-enter from.
				if j := firstBranchable(p, nd.lb, nd.ub); j >= 0 {
					branchAt(h, ts, nd, j, (nd.lb[j]+nd.ub[j])/2, nd.bound, &nextID, nil)
				}
				continue
			}
			if relax.obj >= res.Obj-gapTol {
				continue
			}
			if relax.obj > bestBound {
				// Track the global bound loosely (best-first makes the heap top a
				// valid bound; this is only used for gap reporting).
				bestBound = relax.obj
			}
			if relax.rc != nil && res.Obj < math.Inf(1) {
				// Root reduced-cost tightening: a nonbasic integer variable
				// with reduced cost d moves the root bound L by d per unit, so
				// any solution beating the incumbent U keeps it within
				// (U − L)/|d| of its resting bound. Applied to the root node's
				// bounds before branching, so the whole tree inherits the cut.
				gap := res.Obj - relax.obj
				if gap >= 0 {
					for j := range p.C {
						if p.Integer == nil || !p.Integer[j] {
							continue
						}
						d := relax.rc[j]
						if d > 1e-9 {
							if cut := nd.lb[j] + math.Floor(gap/d+intTol); cut < nd.ub[j]-0.5 {
								nd.ub[j] = cut
								res.Stats.RootCutBounds++
							}
						} else if d < -1e-9 {
							if cut := nd.ub[j] - math.Floor(gap/(-d)+intTol); cut > nd.lb[j]+0.5 {
								nd.lb[j] = cut
								res.Stats.RootCutBounds++
							}
						}
					}
				}
			}
			// Find the most fractional integer variable. Binary variables win
			// ties and beat general integers outright: fixing a binary usually
			// moves the relaxation bound (fixed charges, big-M couplings) far
			// more than splitting a general integer's range.
			branch := -1
			worst := intTol
			branchBinary := false
			for j := 0; j < len(p.C); j++ {
				if p.Integer == nil || !p.Integer[j] {
					continue
				}
				f := math.Abs(relax.x[j] - math.Round(relax.x[j]))
				if f <= intTol {
					continue
				}
				// Bounds are integral here, so the width-1 test is exact.
				//birplint:ignore floateq
				isBin := ub[j]-lb[j] == 1
				switch {
				case isBin && !branchBinary:
					worst, branch, branchBinary = f, j, true
				case isBin == branchBinary && f > worst:
					worst, branch = f, j
				}
			}
			if branch < 0 {
				// Integer feasible: round integer coordinates exactly and accept.
				cand := make([]float64, len(relax.x))
				copy(cand, relax.x)
				for j := range cand {
					if p.Integer != nil && p.Integer[j] {
						cand[j] = math.Round(cand[j])
					}
				}
				obj := evalObj(p, cand)
				// Deterministic tie-break: on equal objective keep the solution
				// from the lexicographically-first node id.
				//birplint:ignore floateq
				if obj < res.Obj || (obj == res.Obj && nd.id < incumbentID) {
					res.Obj = obj
					incumbent = cand
					incumbentID = nd.id
					res.Status = StatusOptimal
				}
				continue
			}
			branchAt(h, ts, nd, branch, relax.x[branch], relax.obj, &nextID, relax.basis)
		}
	}
	if incumbent != nil {
		res.X = incumbent
		res.Status = StatusOptimal
		res.Gap = 0
	}
	return res, nil
}

// lpScratchPool amortizes per-worker LP scratch storage across SolveOpts
// calls (the scheduler solves one MILP per edge per slot).
var lpScratchPool = sync.Pool{New: func() interface{} { return lp.NewScratch() }}

func firstBranchable(p *Problem, lb, ub []float64) int {
	for j := range p.C {
		if p.Integer != nil && p.Integer[j] && ub[j]-lb[j] >= 1 {
			return j
		}
	}
	return -1
}

// branchAt pushes the floor/ceil children of nd split at value v on column j,
// handing both children the parent relaxation's basis for warm re-entry.
// Nodes come from the tree arena; ids are drawn from *nextID. Callers only
// invoke this from the sequential merge phase, so both the arena order and
// the numbering are deterministic.
func branchAt(h *nodeHeap, ts *treeState, nd *node, j int, v, bound float64, nextID *uint64, basis *lp.Basis) {
	n := len(nd.lb)
	lo := math.Floor(v)
	if lo < nd.lb[j] {
		lo = nd.lb[j]
	}
	hi := lo + 1
	if lo >= nd.lb[j] {
		left := ts.takeNode(n)
		copy(left.lb, nd.lb)
		copy(left.ub, nd.ub)
		left.bound, left.depth, left.id, left.basis = bound, nd.depth+1, *nextID, basis
		*nextID++
		left.ub[j] = lo
		if left.lb[j] <= left.ub[j] {
			heap.Push(h, left)
		}
	}
	if hi <= nd.ub[j] {
		right := ts.takeNode(n)
		copy(right.lb, nd.lb)
		copy(right.ub, nd.ub)
		right.bound, right.depth, right.id, right.basis = bound, nd.depth+1, *nextID, basis
		*nextID++
		right.lb[j] = hi
		if right.lb[j] <= right.ub[j] {
			heap.Push(h, right)
		}
	}
}

func clone(v []float64) []float64 {
	w := make([]float64, len(v))
	copy(w, v)
	return w
}

func evalObj(p *Problem, x []float64) float64 {
	var obj float64
	for j, cj := range p.C {
		obj += cj * x[j]
	}
	return obj
}

type relaxStatus int

const (
	relaxOptimal relaxStatus = iota
	relaxInfeasible
	relaxUnbounded
	relaxFailed
)

type relaxResult struct {
	status relaxStatus
	x      []float64
	obj    float64
	// basis is the optimal simplex basis (when capture is on), handed to
	// this node's children for warm re-entry; rc holds reduced costs when the
	// solve was asked for them (root tightening).
	basis *lp.Basis
	rc    []float64
	// observability counters for Stats aggregation.
	warmAttempted    bool
	warmFellBack     bool
	dualReentry      bool
	pivots           int
	dualPivots       int
	refactorizations int
	etaLen           int
	factorReuses     int
}

// solveRelaxation solves the continuous relaxation under node bounds. form,
// when non-nil, is the tree-wide precompiled standard form of p's LP (built
// once per SolveOpts; p and form must describe the same matrices). sc is
// the calling worker's LP scratch; concurrent callers must pass distinct
// scratches. warm, when non-nil, is the parent basis to re-enter from;
// capture asks for the optimal basis (for this node's children); wantRC asks
// for reduced costs (root tightening); preferDual asserts warm is dual
// feasible here (bounds-only change), enabling the dual re-entry.
func solveRelaxation(p *Problem, form *lp.Form, lb, ub []float64, sc *lp.Scratch, warm *lp.Basis, capture, wantRC, preferDual, noReuse bool) (relaxResult, error) {
	lpOpt := lp.Options{CaptureBasis: capture, WantReducedCosts: wantRC, AssumeValid: true, PreferDual: preferDual, NoFactorReuse: noReuse}
	var res *lp.Result
	var err error
	if form != nil {
		// Precompiled standard form: only the bound-dependent vectors are
		// rebuilt for this node.
		res, err = form.SolveWarm(lb, ub, lpOpt, sc, warm)
	} else {
		res, err = lp.SolveWarm(&lp.Problem{
			C: p.C, Aeq: p.Aeq, Beq: p.Beq, Aub: p.Aub, Bub: p.Bub, Lb: lb, Ub: ub,
		}, lpOpt, sc, warm)
	}
	if err != nil {
		return relaxResult{}, err
	}
	out := relaxResult{
		warmAttempted:    warm != nil,
		warmFellBack:     res.WarmFallback,
		dualReentry:      res.DualReentry,
		pivots:           res.Pivots(),
		dualPivots:       res.DualPivots,
		refactorizations: res.Refactorizations,
		etaLen:           res.EtaLen,
		factorReuses:     res.FactorReuses,
	}
	switch res.Status {
	case lp.StatusOptimal:
		out.status, out.x, out.obj = relaxOptimal, res.X, res.Obj
		out.basis = res.Basis
		out.rc = res.ReducedCosts
	case lp.StatusInfeasible:
		out.status = relaxInfeasible
	case lp.StatusUnbounded:
		out.status = relaxUnbounded
	default:
		out.status = relaxFailed
	}
	return out, nil
}

// Builder incrementally assembles a Problem. It exists because the BIRP
// per-slot models are built from many small constraint groups; the Builder
// owns variable naming, bound setting, and the x·b product linearization.
// Rows are stored as offset ranges into one entry slab, so a Reset/rebuild
// cycle of a same-shaped model touches no allocator at all.
type Builder struct {
	names   []string
	lb, ub  []float64
	integer []bool
	c       []float64
	entries []sparseEntry
	aeq     []rowRef
	beq     []float64
	aub     []rowRef
	bub     []float64

	// BuildShared storage: the dense problem materialized into builder-owned
	// slabs, reused across Reset cycles.
	shared       Problem
	sharedSlab   []float64
	sharedEqRows [][]float64
	sharedUbRows [][]float64
}

type sparseEntry struct {
	col  int
	coef float64
}

// rowRef is a half-open range of Builder.entries holding one constraint row.
type rowRef struct{ start, end int32 }

// NewBuilder returns an empty model builder.
func NewBuilder() *Builder { return &Builder{} }

// Reset empties the builder for a fresh model while keeping every backing
// array (names, bounds, rows, the entry slab, the BuildShared storage), so a
// long-lived builder assembles one model per slot without allocating.
// Problems obtained from BuildShared are invalidated.
func (b *Builder) Reset() {
	b.names = b.names[:0]
	b.lb = b.lb[:0]
	b.ub = b.ub[:0]
	b.integer = b.integer[:0]
	b.c = b.c[:0]
	b.entries = b.entries[:0]
	b.aeq = b.aeq[:0]
	b.beq = b.beq[:0]
	b.aub = b.aub[:0]
	b.bub = b.bub[:0]
}

// AddVar adds a variable and returns its column index.
func (b *Builder) AddVar(name string, lb, ub float64, integer bool) int {
	b.names = append(b.names, name)
	b.lb = append(b.lb, lb)
	b.ub = append(b.ub, ub)
	b.integer = append(b.integer, integer)
	b.c = append(b.c, 0)
	return len(b.names) - 1
}

// AddBinary adds a {0,1} variable.
func (b *Builder) AddBinary(name string) int { return b.AddVar(name, 0, 1, true) }

// SetObj adds coef to the linear objective coefficient of column j.
func (b *Builder) SetObj(j int, coef float64) { b.c[j] += coef }

// AddEq adds the constraint Σ coefs[k]·x[cols[k]] = rhs.
func (b *Builder) AddEq(cols []int, coefs []float64, rhs float64) {
	b.aeq = append(b.aeq, b.appendRow(cols, coefs, 1))
	b.beq = append(b.beq, rhs)
}

// AddLe adds the constraint Σ coefs[k]·x[cols[k]] ≤ rhs.
func (b *Builder) AddLe(cols []int, coefs []float64, rhs float64) {
	b.aub = append(b.aub, b.appendRow(cols, coefs, 1))
	b.bub = append(b.bub, rhs)
}

// AddGe adds the constraint Σ coefs[k]·x[cols[k]] ≥ rhs, stored as the
// negated ≤ row directly in the entry slab.
func (b *Builder) AddGe(cols []int, coefs []float64, rhs float64) {
	b.aub = append(b.aub, b.appendRow(cols, coefs, -1))
	b.bub = append(b.bub, -rhs)
}

// appendRow copies one sign-scaled row into the entry slab and returns its
// range.
func (b *Builder) appendRow(cols []int, coefs []float64, sign float64) rowRef {
	if len(cols) != len(coefs) {
		panic("miqp: cols/coefs length mismatch")
	}
	start := int32(len(b.entries))
	for i := range cols {
		b.entries = append(b.entries, sparseEntry{cols[i], sign * coefs[i]})
	}
	return rowRef{start, int32(len(b.entries))}
}

// LinearizeProduct adds a variable z = x·y where x is binary and y lies in
// [0, yMax], using the standard McCormick constraints
//
//	z ≤ yMax·x,   z ≤ y,   z ≥ y − yMax·(1−x),   z ≥ 0.
//
// It returns z's column index. This is how the bilinear loss·x·b objective
// terms of problem P1/P2 become linear.
func (b *Builder) LinearizeProduct(name string, x, y int, yMax float64) int {
	z := b.AddVar(name, 0, yMax, false)
	b.AddLe([]int{z, x}, []float64{1, -yMax}, 0)            // z − yMax·x ≤ 0
	b.AddLe([]int{z, y}, []float64{1, -1}, 0)               // z − y ≤ 0
	b.AddGe([]int{z, y, x}, []float64{1, -1, -yMax}, -yMax) // z − y − yMax·x ≥ −yMax
	return z
}

// NumVars returns the number of variables added so far.
func (b *Builder) NumVars() int { return len(b.names) }

// Name returns the name of column j.
func (b *Builder) Name(j int) string { return b.names[j] }

// Build materializes the dense Problem.
func (b *Builder) Build() *Problem {
	n := len(b.names)
	p := &Problem{
		C:       clone(b.c),
		Lb:      clone(b.lb),
		Ub:      clone(b.ub),
		Integer: append([]bool(nil), b.integer...),
	}
	dense := func(rows []rowRef) [][]float64 {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			row := make([]float64, n)
			for _, e := range b.entries[r.start:r.end] {
				row[e.col] += e.coef
			}
			out[i] = row
		}
		return out
	}
	p.Aeq = dense(b.aeq)
	p.Beq = clone(b.beq)
	p.Aub = dense(b.aub)
	p.Bub = clone(b.bub)
	return p
}

// BuildShared materializes the dense Problem into builder-owned storage that
// is reused across Reset cycles, so a steady-state build of a same-shaped
// model performs no allocation. The returned Problem and every slice it
// references alias the builder: they are valid only until the next Reset or
// BuildShared call, and the builder must not be mutated (AddVar/SetObj/...)
// while the Problem is in use. Callers that need the model to outlive the
// builder cycle must use Build.
func (b *Builder) BuildShared() *Problem {
	n := len(b.names)
	p := &b.shared
	p.C = b.c
	p.Lb = b.lb
	p.Ub = b.ub
	p.Integer = b.integer
	p.Beq = b.beq
	p.Bub = b.bub
	m := len(b.aeq) + len(b.aub)
	need := m * n
	if cap(b.sharedSlab) < need {
		b.sharedSlab = make([]float64, need)
	}
	slab := b.sharedSlab[:need]
	for i := range slab {
		slab[i] = 0
	}
	b.sharedEqRows = growRowHeaders(b.sharedEqRows, len(b.aeq))
	b.sharedUbRows = growRowHeaders(b.sharedUbRows, len(b.aub))
	off := 0
	for i, r := range b.aeq {
		row := slab[off : off+n : off+n]
		off += n
		for _, e := range b.entries[r.start:r.end] {
			row[e.col] += e.coef
		}
		b.sharedEqRows[i] = row
	}
	for i, r := range b.aub {
		row := slab[off : off+n : off+n]
		off += n
		for _, e := range b.entries[r.start:r.end] {
			row[e.col] += e.coef
		}
		b.sharedUbRows[i] = row
	}
	p.Aeq = b.sharedEqRows
	p.Aub = b.sharedUbRows
	return p
}

func growRowHeaders(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		return make([][]float64, n)
	}
	return s[:n]
}

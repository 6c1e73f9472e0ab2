// Package lp implements bounded-variable simplex solvers for linear programs
// in the general form
//
//	minimize    cᵀx
//	subject to  Aeq·x  = beq
//	            Aub·x ≤ bub
//	            lb ≤ x ≤ ub        (entries may be ±Inf)
//
// The general form is mechanically reduced to the boxed standard form
// "min cᵀx, A·x = b, 0 ≤ x ≤ u" (shifting finite lower bounds, splitting
// free variables, adding slack variables for inequalities; upper bounds stay
// native): nonbasic variables rest at either bound and the ratio test admits
// bound flips, so a box constraint costs no extra row. Phase I finds a basic
// feasible point with artificial variables only for rows whose slack cannot
// seed the basis; Phase II optimizes the true objective. Bland's rule is
// engaged after a stall to guarantee termination.
//
// Two interchangeable kernels implement that scheme. The default
// EngineRevised (revised.go) is a sparse revised simplex: the constraint
// matrix stays in CSC form, the basis is an LU factorization with eta-file
// updates and a deterministic refactorization trigger, iterations price with
// BTRAN and update with FTRAN, and warm re-entry after a bound tightening
// runs the dual simplex. EngineDense (bounded.go) is the original dense
// tableau, kept as an A/B oracle and as the fallback when a factorization is
// numerically singular. Both target the small per-slot instances produced by
// the BIRP scheduler (tens to a few hundred variables) and both are
// bit-deterministic: identical inputs produce identical pivot trajectories.
package lp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
)

// Status describes the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below on the feasible set.
	StatusUnbounded
	// StatusIterLimit means the iteration budget was exhausted.
	StatusIterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrBadProblem is returned for structurally invalid inputs (mismatched
// dimensions, NaN coefficients, crossed bounds).
var ErrBadProblem = errors.New("lp: malformed problem")

// Inf is a convenience alias for +Inf used in bound slices.
var Inf = math.Inf(1)

// Problem is a linear program in general form. Nil matrices/slices denote
// "no constraints of that kind". Bounds default to [0, +Inf) when nil.
type Problem struct {
	C   []float64   // objective coefficients, length n
	Aeq [][]float64 // equality constraint rows, each length n
	Beq []float64
	Aub [][]float64 // inequality (≤) constraint rows, each length n
	Bub []float64
	Lb  []float64 // lower bounds; nil means all zeros
	Ub  []float64 // upper bounds; nil means all +Inf
}

// Result carries the solver outcome.
type Result struct {
	Status     Status
	X          []float64 // primal solution in original variables (valid when optimal)
	Obj        float64   // objective value cᵀx
	Iterations int
	// IneqDuals[i] is the shadow price of inequality row i (≥ 0; how much
	// the optimum would improve per unit of extra bub[i]). Valid when
	// optimal. Equality-row duals are not exposed.
	IneqDuals []float64
	// Basis is the optimal simplex basis, captured when Options.CaptureBasis
	// is set and the solve ends optimal. It never aliases scratch memory and
	// can seed a warm re-entry solve (SolveWarm) of a problem with the same
	// structure and equal-or-tighter bounds.
	Basis *Basis
	// ReducedCosts[j] is the reduced cost of original variable j at the
	// optimum, filled when Options.WantReducedCosts is set: rc > 0 means x_j
	// rests at its lower bound and raising it by δ worsens the objective by
	// rc·δ; rc < 0 means x_j rests at its upper bound and lowering it costs
	// |rc|·δ; 0 means basic, free, or degenerate (no information).
	ReducedCosts []float64
	// Warm reports that this solve re-entered from a caller-supplied basis
	// (crash + repair + polish) instead of the cold two-phase path.
	Warm bool
	// WarmFallback reports that a warm attempt was made but abandoned
	// (singular crash pivot, repair stall, …) and the result came from the
	// cold path instead.
	WarmFallback bool
	// CrashPivots and RepairPivots count the extra pivots of a warm solve's
	// basis crash and feasibility repair; Iterations counts the simplex
	// iterations of the main loop (Phase I + II when cold, polish when warm).
	CrashPivots  int
	RepairPivots int
	// DualReentry reports that a revised-engine warm solve re-entered through
	// the dual simplex under the caller's PreferDual guarantee; DualPivots
	// counts its dual pivots (also included in RepairPivots so Pivots() stays
	// comparable across engines).
	DualReentry bool
	DualPivots  int
	// Refactorizations and EtaLen are revised-engine observability: basis
	// refactorization count and total eta-file updates of the solve.
	Refactorizations int
	EtaLen           int
	// FactorReuses counts warm entries that loaded the parent basis's captured
	// canonical LU factorization instead of refactorizing (0 or 1 per solve).
	// The loaded factors are bit-identical to what a fresh factorization would
	// produce, so reuse changes no solver decision — only the Refactorizations
	// work counter.
	FactorReuses int
}

// Pivots returns the total pivot work of the solve: crash and repair pivots
// (warm path) plus the main-loop simplex iterations.
func (r *Result) Pivots() int { return r.CrashPivots + r.RepairPivots + r.Iterations }

// Options tunes the solver.
type Options struct {
	MaxIter int     // 0 means automatic (20·(m+n)+200)
	Tol     float64 // 0 means 1e-9
	// CaptureBasis records the optimal basis in Result.Basis (two small
	// allocations per solve; off by default to keep the steady-state
	// allocation profile).
	CaptureBasis bool
	// WantReducedCosts fills Result.ReducedCosts at optimality.
	WantReducedCosts bool
	// AssumeValid skips the structural input validation (dimension checks,
	// NaN scan, bound-order scan). Strictly for trusted hot paths that
	// construct problems programmatically and re-solve them thousands of
	// times — e.g. the branch & bound relaxation loop, which derives every
	// child from an already-validated parent by tightening one bound. A
	// malformed problem solved with AssumeValid may panic or return
	// nonsense instead of ErrBadProblem.
	AssumeValid bool
	// Engine selects the simplex kernel; the zero value is the sparse
	// revised simplex (EngineRevised). EngineDense forces the legacy dense
	// tableau, the A/B oracle.
	Engine Engine
	// PreferDual asserts that the warm basis passed to SolveWarm was optimal
	// for a problem differing from this one only in variable bounds, so it
	// is dual feasible here. The revised engine then trusts a dual-simplex
	// dead-end as a certified StatusInfeasible instead of falling back to a
	// cold solve. Never set it when costs or constraint data changed.
	// Ignored by the dense engine and by cold solves.
	PreferDual bool
	// NoFactorReuse disables the factorization handoff of the revised engine:
	// captured bases then carry no LU snapshot and warm re-entries always
	// refactorize from scratch, exactly the pre-reuse behavior. Debug knob for
	// A/B equivalence runs — plans are byte-identical either way (the snapshot
	// is bit-exact by construction); only the Refactorizations counter moves.
	NoFactorReuse bool
}

const defaultTol = 1e-9

// Scratch is reusable storage for the solver's large allocations (the
// standard-form rows and the simplex tableau). A Scratch amortizes the
// steady-state allocation cost of repeated solves — the branch-and-bound node
// loop in package miqp holds one per worker — and may be reused across any
// number of sequential SolveScratch calls. It is NOT safe for concurrent use:
// concurrent solvers must hold one Scratch each. Results returned by the
// solver never alias scratch memory, so they stay valid after the scratch is
// reused.
type Scratch struct {
	buf  []float64
	used int
	// rev is the lazily created revised-simplex engine state (LU storage,
	// eta file, work vectors), reused across solves under the same
	// single-owner discipline as the arena.
	rev *revEngine
}

// NewScratch returns an empty reusable scratch.
func NewScratch() *Scratch { return &Scratch{} }

// BeginTree marks the start of a branch & bound tree on this scratch: it
// recycles the factor-snapshot arena, invalidating every snapshot handed out
// through this scratch since the previous call. The caller must guarantee no
// Basis captured before the call is re-entered after it. Solvers that never
// capture bases need not call it.
func (s *Scratch) BeginTree() {
	if s.rev != nil {
		s.rev.snapUsed = 0
		s.rev.basisUsed = 0
	}
}

// reserve begins a new solve: it rewinds the arena and grows it to hold at
// least n floats. It must be called before any take of the same solve, since
// growing reallocates the backing array.
func (s *Scratch) reserve(n int) {
	s.used = 0
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	s.buf = s.buf[:cap(s.buf)]
}

// take returns a zeroed length-n slice carved from the reserved arena (full
// slice expressions keep appends from bleeding into the next take). If the
// reservation was undersized it falls back to the heap rather than corrupt
// earlier takes.
func (s *Scratch) take(n int) []float64 {
	if s.used+n > len(s.buf) {
		return make([]float64, n)
	}
	out := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	for i := range out {
		out[i] = 0
	}
	return out
}

// takeNoZero is take without the zero fill, for slices every element of which
// the caller immediately overwrites (tableau rows built by copy, bound vectors
// filled by an exhaustive loop). Using it for a slice that is only *partially*
// written leaks stale floats from the previous solve into this one.
func (s *Scratch) takeNoZero(n int) []float64 {
	if s.used+n > len(s.buf) {
		return make([]float64, n)
	}
	out := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	return out
}

// scratchPool backs the scratch-less entry points so every caller gets the
// steady-state allocation profile without threading a Scratch through.
var scratchPool = sync.Pool{New: func() interface{} { return NewScratch() }}

// Solve solves the problem with default options.
func Solve(p *Problem) (*Result, error) { return SolveOpts(p, Options{}) }

// SolveOpts solves the problem with the given options.
func SolveOpts(p *Problem, opt Options) (*Result, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return SolveScratch(p, opt, sc)
}

// SolveScratch solves the problem reusing sc's storage for the solver's
// internal matrices. sc may be nil (a fresh scratch is used); otherwise it
// must not be shared with a concurrent solve.
func SolveScratch(p *Problem, opt Options, sc *Scratch) (*Result, error) {
	return SolveWarm(p, opt, sc, nil)
}

// SolveWarm solves the problem like SolveScratch but, when warm is non-nil,
// first tries to re-enter the simplex from the supplied basis: the tableau is
// rebuilt under the (possibly tightened) bounds, crashed onto the basis, made
// primal feasible again with dual-simplex-style pivots, and polished to
// optimality. Whenever the warm path cannot finish — basis shape mismatch,
// singular crash pivot, repair stall — it falls back to the cold two-phase
// solve, so the returned result is always exactly what SolveScratch computes
// modulo the vertex chosen among ties. warm may be nil (plain cold solve).
func SolveWarm(p *Problem, opt Options, sc *Scratch, warm *Basis) (*Result, error) {
	if sc == nil {
		sc = NewScratch()
	}
	n := len(p.C)
	if !opt.AssumeValid {
		if err := validate(p, n); err != nil {
			return nil, err
		}
	}
	tol := opt.Tol
	if mat.Zero(tol) {
		tol = defaultTol
	}
	if warm != nil {
		if opt.Engine == EngineDense {
			if res, ok := solveWarmAttempt(p, n, opt, tol, sc, warm); ok {
				return res, nil
			}
		} else if res, ok := revWarmSolve(p, n, opt, tol, sc, warm); ok {
			return res, nil
		}
	}
	res, err := solveCold(p, n, opt, tol, sc)
	if err == nil && warm != nil {
		res.WarmFallback = true
	}
	return res, err
}

// revWarmSolve is the package-level revised warm entry: build the standard
// form for the problem, then attempt the factorized re-entry.
func revWarmSolve(p *Problem, n int, opt Options, tol float64, sc *Scratch, warm *Basis) (*Result, bool) {
	reserveFor(p, n, sc)
	sf, err := toStandardForm(p, n, sc)
	if err != nil {
		return nil, false
	}
	return revWarmAttempt(p, n, sf, nil, opt, tol, sc, warm)
}

// reserveFor sizes the scratch arena for one solve of the problem's standard
// form and returns (nCols, m). Growing the arena after slices have been handed
// out would invalidate them, so every path reserves up front for the widest
// (cold, artificial-bearing) tableau.
func reserveFor(p *Problem, n int, sc *Scratch) (int, int) {
	nStruct := 0
	for j := 0; j < n; j++ {
		lb, ub := boundsAt(p, j)
		if math.IsInf(lb, -1) && math.IsInf(ub, 1) {
			nStruct += 2 // free variables split into x⁺ − x⁻
		} else {
			nStruct++
		}
	}
	nCols := nStruct + len(p.Aub)
	m := len(p.Aeq) + len(p.Aub)
	width := nCols + m + 1 // artificials ≤ m, plus the rhs column
	sc.reserve(m*nCols + m + 2*nCols + 2*n + (m+1)*width + width + nCols + m)
	return nCols, m
}

func solveCold(p *Problem, n int, opt Options, tol float64, sc *Scratch) (*Result, error) {
	reserveFor(p, n, sc)
	sf, err := toStandardForm(p, n, sc)
	if err != nil {
		return nil, err
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 20*(len(sf.b)+sf.nCols) + 200
	}
	if opt.Engine != EngineDense && len(sf.a) > 0 {
		if res, ok := revSolveCold(p, n, sf, nil, opt, tol, sc, maxIter); ok {
			return res, nil
		}
		// Numerical failure in the revised kernel (singular factorization,
		// un-invertible pivot): the dense oracle answers. The failure is a
		// pure function of the input, so the fallback is deterministic.
	}
	st, xs, duals, iters, bt := solveBounded(sf, sf.colUB, tol, maxIter, sc)
	res := &Result{Status: st, Iterations: iters}
	if st != StatusOptimal {
		return res, nil
	}
	finish(p, n, opt, tol, sf, bt, xs, duals, res)
	return res, nil
}

// finish recovers the original-variable solution, objective, duals, and the
// optional basis/reduced-cost captures shared by the cold and warm paths.
func finish(p *Problem, n int, opt Options, tol float64, sf *standardForm, bt *boundedTableau, xs, duals []float64, res *Result) {
	x := sf.recover(xs)
	res.X = x
	for j := 0; j < n; j++ {
		res.Obj += p.C[j] * x[j]
	}
	// Map standard-form row duals back to the caller's inequality rows: the
	// inequality block starts right after the equalities.
	res.IneqDuals = make([]float64, len(p.Aub))
	for i := range p.Aub {
		res.IneqDuals[i] = duals[len(p.Aeq)+i]
	}
	if bt == nil {
		return
	}
	if opt.CaptureBasis {
		res.Basis = captureBasis(bt)
	}
	if opt.WantReducedCosts {
		res.ReducedCosts = reducedCosts(bt, sf, n, tol)
	}
}

func validate(p *Problem, n int) error {
	check := func(v float64, what string) error {
		if math.IsNaN(v) {
			return fmt.Errorf("%w: NaN in %s", ErrBadProblem, what)
		}
		return nil
	}
	for _, v := range p.C {
		if err := check(v, "objective"); err != nil {
			return err
		}
	}
	if len(p.Aeq) != len(p.Beq) {
		return fmt.Errorf("%w: %d equality rows but %d rhs entries", ErrBadProblem, len(p.Aeq), len(p.Beq))
	}
	if len(p.Aub) != len(p.Bub) {
		return fmt.Errorf("%w: %d inequality rows but %d rhs entries", ErrBadProblem, len(p.Aub), len(p.Bub))
	}
	for i, row := range p.Aeq {
		if len(row) != n {
			return fmt.Errorf("%w: equality row %d has %d cols, want %d", ErrBadProblem, i, len(row), n)
		}
		for _, v := range row {
			if err := check(v, "Aeq"); err != nil {
				return err
			}
		}
	}
	for i, row := range p.Aub {
		if len(row) != n {
			return fmt.Errorf("%w: inequality row %d has %d cols, want %d", ErrBadProblem, i, len(row), n)
		}
		for _, v := range row {
			if err := check(v, "Aub"); err != nil {
				return err
			}
		}
	}
	return validateBounds(p, n)
}

// validateBounds checks only the bound vectors — the per-solve piece of
// validate, split out so Form.SolveWarm (whose matrices were validated once by
// NewForm) can validate just what changes between solves.
func validateBounds(p *Problem, n int) error {
	if p.Lb != nil && len(p.Lb) != n {
		return fmt.Errorf("%w: lb length %d, want %d", ErrBadProblem, len(p.Lb), n)
	}
	if p.Ub != nil && len(p.Ub) != n {
		return fmt.Errorf("%w: ub length %d, want %d", ErrBadProblem, len(p.Ub), n)
	}
	for j := 0; j < n; j++ {
		lb, ub := boundsAt(p, j)
		if math.IsNaN(lb) || math.IsNaN(ub) {
			return fmt.Errorf("%w: NaN bound on variable %d", ErrBadProblem, j)
		}
		if lb > ub {
			return fmt.Errorf("%w: variable %d has lb %g > ub %g", ErrBadProblem, j, lb, ub)
		}
	}
	return nil
}

func boundsAt(p *Problem, j int) (lb, ub float64) {
	lb, ub = 0, math.Inf(1)
	if p.Lb != nil {
		lb = p.Lb[j]
	}
	if p.Ub != nil {
		ub = p.Ub[j]
	}
	return lb, ub
}

// standardForm is "min csᵀ·xs  s.t.  A·xs = b, xs ≥ 0" plus the bookkeeping to
// map a standard-form solution back to the original variables.
type standardForm struct {
	a     [][]float64
	b     []float64
	c     []float64
	nCols int
	// slackCol[i] is the column of row i's slack variable, or -1. When the
	// row's rhs is non-negative and the slack coefficient is +1 the slack can
	// seed the Phase-I basis directly, avoiding an artificial variable.
	slackCol []int
	// colUB[j] is column j's native upper bound (+Inf when absent); the
	// bounded-variable engine honors it without materializing a row.
	colUB []float64
	// recovery data: original variable j maps to
	//   x[j] = shift[j] + sign[j]·xs[pos[j]] - (xs[neg[j]] if neg[j] >= 0)
	// where sign[j] is −1 only for the x = ub − x′ substitution (lb = −Inf
	// with a finite ub) and +1 otherwise.
	shift []float64
	sign  []float64
	pos   []int
	neg   []int
}

func (s *standardForm) recover(xs []float64) []float64 {
	x := make([]float64, len(s.pos))
	for j := range x {
		x[j] = s.shift[j] + s.sign[j]*xs[s.pos[j]]
		if s.neg[j] >= 0 {
			x[j] -= xs[s.neg[j]]
		}
	}
	return x
}

// toStandardForm rewrites the general-form problem:
//
//   - finite lb: substitute x = lb + x′, x′ ≥ 0
//   - lb = -Inf, finite ub: substitute x = ub − x′, x′ ≥ 0
//   - free variable: split x = x⁺ − x⁻
//   - both bounds finite: shift by lb; the residual upper bound ub − lb is
//     kept native in colUB for the bounded engine
//   - each ≤ row gains a slack variable
func toStandardForm(p *Problem, n int, sc *Scratch) (*standardForm, error) {
	sf := &standardForm{
		shift: sc.take(n),
		pos:   make([]int, n),
		neg:   make([]int, n),
	}
	// sign[j] is +1 when x = shift + x′ and −1 when x = shift − x′.
	sign := sc.take(n)
	sf.sign = sign
	nStructPre := 0
	for j := 0; j < n; j++ {
		lb, ub := boundsAt(p, j)
		if math.IsInf(lb, -1) && math.IsInf(ub, 1) {
			nStructPre += 2
		} else {
			nStructPre++
		}
	}
	col := 0
	colUB := sc.take(nStructPre + len(p.Aub))[:0]
	for j := 0; j < n; j++ {
		lb, ub := boundsAt(p, j)
		switch {
		case !math.IsInf(lb, -1):
			sf.shift[j] = lb
			sign[j] = 1
			sf.pos[j] = col
			sf.neg[j] = -1
			colUB = append(colUB, ub-lb) // +Inf−finite stays +Inf
			col++
		case !math.IsInf(ub, 1): // lb = -Inf, finite ub
			sf.shift[j] = ub
			sign[j] = -1
			sf.pos[j] = col
			sf.neg[j] = -1
			colUB = append(colUB, math.Inf(1))
			col++
		default: // free
			sf.shift[j] = 0
			sign[j] = 1
			sf.pos[j] = col
			sf.neg[j] = col + 1
			colUB = append(colUB, math.Inf(1), math.Inf(1))
			col += 2
		}
	}
	nStruct := col
	nSlack := len(p.Aub)
	sf.nCols = nStruct + nSlack
	for s := 0; s < nSlack; s++ {
		colUB = append(colUB, math.Inf(1))
	}
	sf.colUB = colUB
	m := len(p.Aeq) + len(p.Aub)
	sf.a = make([][]float64, m)
	sf.b = sc.take(m)
	sf.c = sc.take(sf.nCols)

	// Objective in the substituted variables. Constant offsets (cᵀ·shift) do
	// not affect the argmin, so they are dropped; Obj is recomputed from the
	// recovered x.
	for j := 0; j < n; j++ {
		cj := p.C[j]
		sf.c[sf.pos[j]] += cj * sign[j]
		if sf.neg[j] >= 0 {
			sf.c[sf.neg[j]] -= cj
		}
	}

	sf.slackCol = make([]int, m)
	for i := range sf.slackCol {
		sf.slackCol[i] = -1
	}
	row := 0
	emit := func(coef []float64, rhs float64, slackCol int) {
		r := sc.take(sf.nCols)
		for j := 0; j < n; j++ {
			a := coef[j]
			if mat.Zero(a) {
				continue
			}
			r[sf.pos[j]] += a * sign[j]
			if sf.neg[j] >= 0 {
				r[sf.neg[j]] -= a
			}
			rhs -= a * sf.shift[j]
		}
		if slackCol >= 0 {
			r[slackCol] = 1
			sf.slackCol[row] = slackCol
		}
		sf.a[row] = r
		sf.b[row] = rhs
		row++
	}
	for i, r := range p.Aeq {
		emit(r, p.Beq[i], -1)
	}
	slack := nStruct
	for i, r := range p.Aub {
		emit(r, p.Bub[i], slack)
		slack++
	}
	// Normalize: standard form needs b ≥ 0 for the Phase-I construction.
	// Negating a row flips its slack coefficient to −1, which disqualifies
	// the slack from seeding the basis.
	for i := range sf.a {
		if sf.b[i] < 0 {
			sf.b[i] = -sf.b[i]
			for j := range sf.a[i] {
				sf.a[i][j] = -sf.a[i][j]
			}
			sf.slackCol[i] = -1
		}
	}
	return sf, nil
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

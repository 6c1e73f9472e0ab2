// Package lp implements a bounded-variable simplex solver for linear programs
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
// The kernel (revised.go) is a sparse revised simplex: the constraint
// matrix stays in CSC form, the basis is an LU factorization with eta-file
// updates and a deterministic refactorization trigger, iterations price with
// BTRAN and update with FTRAN, and warm re-entry after a bound tightening
// runs the dual simplex. A problem without rows has a closed-form answer and
// never reaches the kernel; a kernel failure that survives the retry on
// normalized rows is reported as ErrNumerical. The kernel targets the small
// per-slot instances produced by the BIRP scheduler (tens to a few hundred
// variables) and is bit-deterministic: identical inputs produce identical
// pivot trajectories. The package's original dense tableau engine lives on
// in the tests as the differential oracle.
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

// ErrNumerical is returned when the simplex kernel cannot finish a solve
// for numerical reasons (a singular basis factorization or a pivot too small
// to invert) even after retrying on the normalized rows. The failure is a
// pure function of the input, so it is deterministic.
var ErrNumerical = errors.New("lp: numerical failure in the simplex kernel")

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
	// (dual repair + polish) instead of the cold two-phase path.
	Warm bool
	// WarmFallback reports that a warm attempt was made but abandoned
	// (shape mismatch, singular factorization, repair stall, …) and the
	// result came from the cold path instead.
	WarmFallback bool
	// DualReentry reports that a warm solve re-entered through the dual
	// simplex under the caller's PreferDual guarantee. DualPivots counts the
	// dual pivots of a warm solve's feasibility repair; Iterations counts the
	// simplex iterations of the main loop (Phase I + II when cold, polish
	// when warm).
	DualReentry bool
	DualPivots  int
	// Refactorizations and EtaLen are kernel observability: basis
	// refactorization count and total eta-file updates of the solve.
	Refactorizations int
	EtaLen           int
	// Unique certifies, on an optimal result, that X is the only optimum:
	// every nonbasic standard-form column that can move (upper bound > 0)
	// has a reduced cost of magnitude above 1e-7, so moving any of
	// them off its bound strictly worsens the objective (dual
	// nondegeneracy). A solve from any other start then reaches the same X
	// up to rounding. False means not certified: the optimum may be tied,
	// or the solve had no rows and ran no simplex.
	Unique bool
}

// Pivots returns the total pivot work of the solve: the dual repair pivots
// (warm path) plus the main-loop simplex iterations.
func (r *Result) Pivots() int { return r.DualPivots + r.Iterations }

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
	// PreferDual asserts that the warm basis passed to SolveWarm was optimal
	// for a problem differing from this one only in variable bounds, so it
	// is dual feasible here. The revised engine then trusts a dual-simplex
	// dead-end as a certified StatusInfeasible instead of falling back to a
	// cold solve. Never set it when costs or constraint data changed.
	// Ignored by cold solves.
	PreferDual bool
}

const defaultTol = 1e-9

// Scratch is reusable storage for the solver's per-solve float vectors (the
// standard-form rows, rhs, costs, bounds and solution). A Scratch amortizes
// the steady-state allocation cost of repeated solves — the branch-and-bound
// node loop in package miqp holds one per worker — and may be reused across
// any number of sequential SolveScratch calls. It is NOT safe for concurrent use:
// concurrent solvers must hold one Scratch each. Results returned by the
// solver never alias scratch memory, so they stay valid after the scratch is
// reused.
type Scratch struct {
	buf  []float64
	used int
	// spills counts takes that found the reservation too small and went to
	// the heap; reservations are sized so that it stays 0.
	spills int
	// rev is the lazily created revised-simplex engine state (LU storage,
	// eta file, work vectors), reused across solves under the same
	// single-owner discipline as the arena.
	rev *revEngine
}

// NewScratch returns an empty reusable scratch.
func NewScratch() *Scratch { return &Scratch{} }

// BeginTree marks the start of a branch & bound tree on this scratch: it
// recycles the captured-basis arena, invalidating every Form-path Basis
// handed out through this scratch since the previous call. The caller must
// guarantee no Basis captured before the call is re-entered after it.
// Solvers that never capture bases need not call it.
func (s *Scratch) BeginTree() {
	if s.rev != nil {
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
		s.spills++
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
// the caller immediately overwrites (bound vectors filled by an exhaustive
// loop). Using it for a slice that is only *partially* written leaks stale
// floats from the previous solve into this one.
func (s *Scratch) takeNoZero(n int) []float64 {
	if s.used+n > len(s.buf) {
		s.spills++
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
// first tries to re-enter the simplex from the supplied basis: the basis is
// factorized under the (possibly tightened) bounds, made primal feasible
// again with dual simplex pivots, and polished to optimality. Whenever the
// warm path cannot finish — basis shape mismatch, singular factorization,
// repair stall — it falls back to the cold two-phase solve, so the returned
// result is always exactly what SolveScratch computes modulo the vertex
// chosen among ties. warm may be nil (plain cold solve).
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
		if res, ok := revWarmAttempt(p, n, toStandardForm(p, n, sc), nil, opt, tol, sc, warm); ok {
			return res, nil
		}
	}
	res, err := solveCold(p, n, opt, tol, sc)
	if err == nil && warm != nil {
		res.WarmFallback = true
	}
	return res, err
}

// solveCold is the cold solve on the normalized standard form, the last
// resort of every path. A kernel failure here is final: ErrNumerical.
func solveCold(p *Problem, n int, opt Options, tol float64, sc *Scratch) (*Result, error) {
	if res, ok := solveStandard(p, n, toStandardForm(p, n, sc), nil, opt, tol, sc); ok {
		return res, nil
	}
	return nil, ErrNumerical
}

// solveStandard solves a built standard form from scratch: in closed form
// when it has no rows, else with the two-phase revised simplex. csc may be
// nil (compressed from sf.a). ok is false on a numerical failure of the
// kernel.
func solveStandard(p *Problem, n int, sf *standardForm, csc *cscMatrix, opt Options, tol float64, sc *Scratch) (*Result, bool) {
	if len(sf.a) == 0 {
		return solveNoRows(p, n, sf, tol, sc), true
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 20*(len(sf.b)+sf.nCols) + 200
	}
	return revSolveCold(p, n, sf, csc, opt, tol, sc, maxIter)
}

// solveNoRows is the closed form of a problem without rows: each column
// rests at its upper bound when its cost is negative (unbounded when that
// bound is +Inf), else at 0. It captures no basis and no reduced costs.
func solveNoRows(p *Problem, n int, sf *standardForm, tol float64, sc *Scratch) *Result {
	xs := sc.take(sf.nCols)
	for j, cj := range sf.c {
		if cj < -tol {
			if math.IsInf(sf.colUB[j], 1) {
				return &Result{Status: StatusUnbounded}
			}
			xs[j] = sf.colUB[j]
		}
	}
	res := &Result{Status: StatusOptimal, X: sf.recover(xs), IneqDuals: []float64{}}
	for j := 0; j < n; j++ {
		res.Obj += p.C[j] * res.X[j]
	}
	return res
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
	// kernel honors it without materializing a row.
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
//     kept native in colUB
//   - each ≤ row gains a slack variable
//
// It begins the solve's scratch reservation, sized for its own takes plus
// the solution vector the solve ends with.
func toStandardForm(p *Problem, n int, sc *Scratch) *standardForm {
	nStructPre := 0
	for j := 0; j < n; j++ {
		lb, ub := boundsAt(p, j)
		if math.IsInf(lb, -1) && math.IsInf(ub, 1) {
			nStructPre += 2 // free variables split into x⁺ − x⁻
		} else {
			nStructPre++
		}
	}
	nColsPre := nStructPre + len(p.Aub)
	m := len(p.Aeq) + len(p.Aub)
	// shift, sign; colUB, c and the solution; b; the rows.
	sc.reserve(2*n + 3*nColsPre + m + m*nColsPre)
	sf := &standardForm{
		shift: sc.take(n),
		pos:   make([]int, n),
		neg:   make([]int, n),
	}
	// sign[j] is +1 when x = shift + x′ and −1 when x = shift − x′.
	sign := sc.take(n)
	sf.sign = sign
	col := 0
	colUB := sc.take(nColsPre)[:0]
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
	// Normalize to b ≥ 0. The kernel's sign-matched artificials do not need
	// it, but it gives a second encoding of the rows for the Form path to
	// retry on after a numerical failure (and the dense reference solver of
	// the tests needs it). Negating a row flips its slack coefficient to −1,
	// which disqualifies the slack from seeding the basis.
	for i := range sf.a {
		if sf.b[i] < 0 {
			sf.b[i] = -sf.b[i]
			for j := range sf.a[i] {
				sf.a[i][j] = -sf.a[i][j]
			}
			sf.slackCol[i] = -1
		}
	}
	return sf
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

package lp

import (
	"math"

	"repro/internal/mat"
)

// bound-pattern categories: which standard-form substitution a variable uses.
// The category depends only on which bounds are finite, not on their values,
// so it is stable across branch & bound nodes (branching tightens integer
// bounds, which are finite on both sides already, and presolve never turns a
// finite bound infinite).
const (
	patFiniteLB uint8 = iota // finite lb: x = lb + x′
	patUBOnly                // lb = −Inf, finite ub: x = ub − x′
	patFree                  // both infinite: x = x⁺ − x⁻
)

func patternOf(lb, ub float64) uint8 {
	switch {
	case !math.IsInf(lb, -1):
		return patFiniteLB
	case !math.IsInf(ub, 1):
		return patUBOnly
	default:
		return patFree
	}
}

// Form is a reusable compilation of the standard form shared by a family of
// problems that differ only in their variable bounds — exactly the branch &
// bound situation, where thousands of node relaxations reuse one matrix and
// only tighten bounds. NewForm performs the coefficient transform (lower-bound
// shift, free-variable split, slack columns) once; each Form.SolveWarm then
// recomputes only the bound-dependent pieces: the shift vector, the shifted
// rhs (via a per-row nonzero index, O(nnz) instead of O(m·n)), and the native
// column upper bounds.
//
// The compiled rows skip the b ≥ 0 normalization of toStandardForm: the
// kernel's sign-matched artificials make it unnecessary, so the per-solve
// coefficient transform is skipped entirely. Slack-column duals stay valid —
// an unnegated ≤ row always keeps its +1 slack.
//
// A Form is immutable after NewForm and safe to share across concurrent
// solvers, each holding its own Scratch. The matrices are aliased, not copied:
// the caller must not mutate them while the Form is in use.
type Form struct {
	c   []float64
	aeq [][]float64
	beq []float64
	aub [][]float64
	bub []float64

	n, m, nCols int
	pattern     []uint8

	// Shift-independent standard-form data, computed once.
	sfA      [][]float64 // transformed rows, unnormalized, each length nCols
	sfC      []float64
	slackCol []int
	pos, neg []int
	sign     []float64

	// Per-row nonzeros over the *original* variables, for the O(nnz) rhs
	// shift: b[i] = B[i] − Σ_k rowVal[i][k]·shift[rowNZ[i][k]].
	rowNZ  [][]int32
	rowVal [][]float64

	// csc is the compiled sparse column form of sfA: one compression per
	// tree instead of one per solve. Read-only after NewForm, like
	// everything else here.
	csc cscMatrix

	// Backing slabs for the per-row slices above, recycled by NewFormReuse.
	sfASlab    []float64
	rowNZSlab  []int32
	rowValSlab []float64
}

// NewForm compiles p's matrices and bound pattern into a reusable Form. The
// bound *values* in p.Lb/p.Ub are not retained — only which bounds are finite
// — so subsequent SolveWarm calls may pass any bounds with the same pattern.
// The matrices are validated here, once, in full.
func NewForm(p *Problem) (*Form, error) { return NewFormReuse(nil, p) }

// NewFormReuse compiles p exactly like NewForm but recycles prev's storage
// (prev may be nil, and any shape difference is handled by regrowing). The
// returned Form is prev when prev was non-nil. Caller contract: prev must no
// longer be in use by any solver — in particular, factor snapshots captured
// against prev's compiled matrix must all be dead (see Scratch.BeginTree),
// because the recycled matrix keeps its pointer identity while changing
// contents.
func NewFormReuse(prev *Form, p *Problem) (*Form, error) {
	n := len(p.C)
	if err := validate(p, n); err != nil {
		return nil, err
	}
	f := prev
	if f == nil {
		f = &Form{}
	}
	f.c = p.C
	f.aeq, f.beq = p.Aeq, p.Beq
	f.aub, f.bub = p.Aub, p.Bub
	f.n = n
	f.m = len(p.Aeq) + len(p.Aub)
	f.pattern = growU8(f.pattern, n)
	f.pos = growInt(f.pos, n)
	f.neg = growInt(f.neg, n)
	f.sign = growF64(f.sign, n)
	col := 0
	for j := 0; j < n; j++ {
		lb, ub := boundsAt(p, j)
		f.pattern[j] = patternOf(lb, ub)
		switch f.pattern[j] {
		case patFiniteLB:
			f.sign[j] = 1
			f.pos[j], f.neg[j] = col, -1
			col++
		case patUBOnly:
			f.sign[j] = -1
			f.pos[j], f.neg[j] = col, -1
			col++
		default:
			f.sign[j] = 1
			f.pos[j], f.neg[j] = col, col+1
			col += 2
		}
	}
	nStruct := col
	f.nCols = nStruct + len(p.Aub)

	f.sfC = growF64(f.sfC, f.nCols)
	for j := range f.sfC {
		f.sfC[j] = 0
	}
	for j := 0; j < n; j++ {
		cj := p.C[j]
		f.sfC[f.pos[j]] += cj * f.sign[j]
		if f.neg[j] >= 0 {
			f.sfC[f.neg[j]] -= cj
		}
	}

	f.sfA = growRows(f.sfA, f.m)
	f.slackCol = growInt(f.slackCol, f.m)
	f.rowNZ = growRowsI32(f.rowNZ, f.m)
	f.rowVal = growRows(f.rowVal, f.m)
	if need := f.m * f.nCols; cap(f.sfASlab) < need {
		f.sfASlab = make([]float64, need)
	}
	// The nonzero slabs are appended to (total nnz is not known up front), so
	// per-row headers are cut from recorded offsets after the fill — an append
	// may relocate the slab, which would invalidate slices taken earlier.
	f.rowNZSlab = f.rowNZSlab[:0]
	f.rowValSlab = f.rowValSlab[:0]
	rowOff := 0
	row := 0
	emit := func(coef []float64, slackCol int) {
		r := f.sfASlab[rowOff : rowOff+f.nCols : rowOff+f.nCols]
		rowOff += f.nCols
		for j := range r {
			r[j] = 0
		}
		for j := 0; j < n; j++ {
			a := coef[j]
			if mat.Zero(a) {
				continue
			}
			r[f.pos[j]] += a * f.sign[j]
			if f.neg[j] >= 0 {
				r[f.neg[j]] -= a
			}
			f.rowNZSlab = append(f.rowNZSlab, int32(j))
			f.rowValSlab = append(f.rowValSlab, a)
		}
		if slackCol >= 0 {
			r[slackCol] = 1
		}
		f.sfA[row] = r
		f.slackCol[row] = slackCol
		// Stash the end offset; the header pass below turns these into slices.
		f.rowNZ[row] = f.rowNZSlab[:len(f.rowNZSlab)]
		row++
	}
	for _, r := range p.Aeq {
		emit(r, -1)
	}
	for i := range p.Aub {
		emit(p.Aub[i], nStruct+i)
	}
	start := 0
	for i := 0; i < f.m; i++ {
		end := len(f.rowNZ[i])
		f.rowNZ[i] = f.rowNZSlab[start:end:end]
		f.rowVal[i] = f.rowValSlab[start:end:end]
		start = end
	}
	buildCSC(&f.csc, f.sfA, f.m, f.nCols)
	return f, nil
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growRows(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		return make([][]float64, n)
	}
	return s[:n]
}

func growRowsI32(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		return make([][]int32, n)
	}
	return s[:n]
}

// instantiate builds the per-solve standardForm for the given bounds from the
// compiled data. It reserves the scratch (so it must precede every take of the
// same solve) and returns ok = false when the bounds no longer match the
// compiled pattern — a variable changed substitution category, so the caller
// must rebuild from the raw problem instead. The rows are precompiled, so the
// reservation is O(n+m): shift, colUB, b, and the solution vector the solve
// ends with.
func (f *Form) instantiate(lb, ub []float64, sc *Scratch) (*standardForm, bool) {
	n, m, nCols := f.n, f.m, f.nCols
	sc.reserve(n + 2*nCols + m)
	shift := sc.takeNoZero(n)
	colUB := sc.takeNoZero(nCols)
	for j := 0; j < n; j++ {
		lbj, ubj := lb[j], ub[j]
		if patternOf(lbj, ubj) != f.pattern[j] {
			return nil, false
		}
		switch f.pattern[j] {
		case patFiniteLB:
			shift[j] = lbj
			colUB[f.pos[j]] = ubj - lbj // +Inf−finite stays +Inf
		case patUBOnly:
			shift[j] = ubj
			colUB[f.pos[j]] = math.Inf(1)
		default:
			shift[j] = 0
			colUB[f.pos[j]] = math.Inf(1)
			colUB[f.neg[j]] = math.Inf(1)
		}
	}
	for s := nCols - len(f.aub); s < nCols; s++ {
		colUB[s] = math.Inf(1)
	}
	b := sc.takeNoZero(m)
	for i := 0; i < m; i++ {
		rhs := 0.0
		if i < len(f.beq) {
			rhs = f.beq[i]
		} else {
			rhs = f.bub[i-len(f.beq)]
		}
		nz, val := f.rowNZ[i], f.rowVal[i]
		for k, j := range nz {
			rhs -= val[k] * shift[j]
		}
		b[i] = rhs
	}
	return &standardForm{
		a:        f.sfA,
		b:        b,
		c:        f.sfC,
		nCols:    nCols,
		slackCol: f.slackCol,
		colUB:    colUB,
		shift:    shift,
		sign:     f.sign,
		pos:      f.pos,
		neg:      f.neg,
	}, true
}

// SolveWarm solves the compiled problem under the given bounds, re-entering
// from warm when non-nil, exactly like the package-level SolveWarm but
// skipping the per-solve coefficient transform: the warm re-entry and the
// cold two-phase solve both run on the compiled (unnormalized) rows and the
// precompiled CSC. A pattern mismatch or a numerical failure falls back to
// the ordinary cold solve on the raw problem's normalized rows, so results
// are identical to SolveWarm on the equivalent Problem.
func (f *Form) SolveWarm(lb, ub []float64, opt Options, sc *Scratch, warm *Basis) (*Result, error) {
	if sc == nil {
		sc = NewScratch()
	}
	p := &Problem{C: f.c, Aeq: f.aeq, Beq: f.beq, Aub: f.aub, Bub: f.bub, Lb: lb, Ub: ub}
	if !opt.AssumeValid {
		// Matrices were validated by NewForm; only the bounds are new input.
		if err := validateBounds(p, f.n); err != nil {
			return nil, err
		}
	}
	tol := opt.Tol
	if mat.Zero(tol) {
		tol = defaultTol
	}
	sf, ok := f.instantiate(lb, ub, sc)
	if ok && warm != nil {
		if res, ok := revWarmAttempt(p, f.n, sf, &f.csc, opt, tol, sc, warm); ok {
			return res, nil
		}
	}
	var res *Result
	if ok {
		res, ok = solveStandard(p, f.n, sf, &f.csc, opt, tol, sc)
	}
	var err error
	if !ok {
		res, err = solveCold(p, f.n, opt, tol, sc)
	}
	if err == nil && warm != nil {
		res.WarmFallback = true
	}
	return res, err
}

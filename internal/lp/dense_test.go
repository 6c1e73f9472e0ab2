package lp

import (
	"math"

	"repro/internal/mat"
)

// Dense bounded-variable tableau simplex: the tests' reference solver.
//
// This is the package's original engine. The sparse revised simplex
// (revised.go) replaced it in production; it survives here as an
// independent implementation of the same scheme that the differential tests
// compare against. It works on the normalized (b ≥ 0) standard form
//
//	min cᵀx   s.t.  A·x = b (after slacks),  0 ≤ x ≤ u   (u may be +Inf)
//
// and keeps the upper bounds native: nonbasic variables rest at either bound,
// the ratio test admits bound flips, and columns are algebraically
// substituted (x ↔ u − x′) when a variable parks at its upper bound.

// solveDense is the oracle's cold solve of a general-form problem: validate,
// reduce to standard form, run Phase I + II on the dense tableau, and map the
// optimum back to the original variables. Only Status, X, Obj, IneqDuals and
// Iterations are filled.
func solveDense(p *Problem, opt Options) (*Result, error) {
	n := len(p.C)
	if err := validate(p, n); err != nil {
		return nil, err
	}
	tol := opt.Tol
	if mat.Zero(tol) {
		tol = defaultTol
	}
	sc := NewScratch()
	sf := toStandardForm(p, n, sc)
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 20*(len(sf.b)+sf.nCols) + 200
	}
	st, xs, duals, iters := solveBounded(sf, sf.colUB, tol, maxIter, sc)
	res := &Result{Status: st, Iterations: iters}
	if st != StatusOptimal {
		return res, nil
	}
	res.X = sf.recover(xs)
	for j := 0; j < n; j++ {
		res.Obj += p.C[j] * res.X[j]
	}
	res.IneqDuals = make([]float64, len(p.Aub))
	for i := range p.Aub {
		res.IneqDuals[i] = duals[len(p.Aeq)+i]
	}
	return res, nil
}

type boundedTableau struct {
	t     [][]float64 // m+1 rows: constraints then reduced-cost row
	rhs   int         // rhs column index
	basis []int
	ub    []float64 // current upper bounds in substituted coordinates
	// flipped[j] means column j currently represents u_j − x_j.
	flipped []bool
	// basic[j] mirrors "j ∈ basis" so membership tests are O(1) instead of
	// scanning the basis on every reduced-cost probe.
	basic []bool
	nCols int // structural+slack columns (artificials excluded)
}

// value recovers the original-coordinate value of column j given its
// substituted-coordinate value v.
func (bt *boundedTableau) value(j int, v float64) float64 {
	if bt.flipped[j] {
		return bt.ub[j] - v
	}
	return v
}

// flip substitutes column j: x_j ← u_j − x_j. Finite ub required.
func (bt *boundedTableau) flip(j int) {
	u := bt.ub[j]
	for i := range bt.t {
		row := bt.t[i]
		if mat.Zero(row[j]) {
			continue
		}
		row[bt.rhs] -= row[j] * u
		row[j] = -row[j]
	}
	bt.flipped[j] = !bt.flipped[j]
}

// axpyNeg computes dst[j] -= f·src[j] elementwise. It is the innermost loop of
// every simplex pivot, so it is unrolled four wide with the bounds checks
// hoisted; each dst[j] is still computed by the same single multiply-subtract
// as the naive loop, so results are bit-identical (no reassociation).
func axpyNeg(dst, src []float64, f float64) {
	dst = dst[:len(src)]
	j := 0
	for ; j+3 < len(src); j += 4 {
		dst[j] -= f * src[j]
		dst[j+1] -= f * src[j+1]
		dst[j+2] -= f * src[j+2]
		dst[j+3] -= f * src[j+3]
	}
	for ; j < len(src); j++ {
		dst[j] -= f * src[j]
	}
}

// pivotAt performs a Gauss-Jordan pivot at (row, col).
func (bt *boundedTableau) pivotAt(row, col int) {
	p := bt.t[row][col]
	inv := 1 / p
	r := bt.t[row]
	j := 0
	for ; j+3 < len(r); j += 4 {
		r[j] *= inv
		r[j+1] *= inv
		r[j+2] *= inv
		r[j+3] *= inv
	}
	for ; j < len(r); j++ {
		r[j] *= inv
	}
	r[col] = 1
	for i := range bt.t {
		if i == row {
			continue
		}
		f := bt.t[i][col]
		if mat.Zero(f) {
			continue
		}
		ri := bt.t[i]
		axpyNeg(ri, r, f)
		ri[col] = 0
	}
	bt.basic[bt.basis[row]] = false
	bt.basic[col] = true
	bt.basis[row] = col
}

// iterate runs the bounded-variable simplex until optimality, unboundedness,
// or the iteration budget. Columns ≥ nAllowed never enter. Bland's rule is
// engaged after a degenerate stall.
func (bt *boundedTableau) iterate(nAllowed int, tol float64, maxIter int) (int, Status) {
	m := len(bt.basis)
	obj := m // objective row index
	degenerate := 0
	bland := false
	for iter := 1; iter <= maxIter; iter++ {
		// Entering column: negative reduced cost among nonbasic columns
		// (every nonbasic rests at value 0 in substituted coordinates).
		enter := -1
		if bland {
			for j := 0; j < nAllowed; j++ {
				if bt.t[obj][j] < -tol && !bt.isBasic(j) {
					enter = j
					break
				}
			}
		} else {
			best := -tol
			for j := 0; j < nAllowed; j++ {
				if bt.t[obj][j] < best && !bt.isBasic(j) {
					best = bt.t[obj][j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return iter - 1, StatusOptimal
		}
		// Ratio test: the entering variable rises from 0 until
		//   (a) a basic variable falls to 0,
		//   (b) a basic variable climbs to its upper bound, or
		//   (c) the entering variable reaches its own upper bound.
		limit := bt.ub[enter] // case (c); +Inf when unbounded above
		leave := -1
		leaveToUpper := false
		for i := 0; i < m; i++ {
			a := bt.t[i][enter]
			bi := bt.t[i][bt.rhs]
			if a > tol { // case (a)
				ratio := bi / a
				if ratio < limit-tol || (ratio < limit+tol && leave >= 0 && bt.basis[i] < bt.basis[leave]) {
					limit = ratio
					leave = i
					leaveToUpper = false
				}
			} else if a < -tol { // case (b)
				ubi := bt.ub[bt.basis[i]]
				if math.IsInf(ubi, 1) {
					continue
				}
				ratio := (ubi - bi) / (-a)
				if ratio < limit-tol || (ratio < limit+tol && leave >= 0 && bt.basis[i] < bt.basis[leave]) {
					limit = ratio
					leave = i
					leaveToUpper = true
				}
			}
		}
		if math.IsInf(limit, 1) {
			return iter, StatusUnbounded
		}
		if limit <= tol {
			degenerate++
			if degenerate > 3*m {
				bland = true
			}
		} else {
			degenerate = 0
			bland = false
		}
		if leave < 0 {
			// Case (c): pure bound flip, no basis change.
			bt.flip(enter)
			continue
		}
		if leaveToUpper {
			// The leaving basic variable exits at its upper bound: substitute
			// it first so it exits at 0, then pivot normally.
			bt.flip(bt.basis[leave])
		}
		bt.pivotAt(leave, enter)
	}
	return maxIter, StatusIterLimit
}

func (bt *boundedTableau) isBasic(j int) bool {
	return bt.basic[j]
}

// extractSolution reads the optimal primal point and per-row duals off a
// solved tableau. xs[j] is standard-form column j's value in original
// (unflipped) coordinates; duals[i] is the reduced cost of row i's slack
// column (0 for rows without a usable slack).
func extractSolution(bt *boundedTableau, sf *standardForm, sc *Scratch) (xs, duals []float64) {
	m := len(bt.basis)
	n := bt.nCols
	xs = sc.take(n)
	for j := 0; j < n; j++ {
		if bt.flipped[j] && !bt.isBasic(j) {
			xs[j] = bt.ub[j] // nonbasic at (substituted) 0 = original upper bound
		}
	}
	for i := 0; i < m; i++ {
		if bt.basis[i] < n {
			xs[bt.basis[i]] = bt.value(bt.basis[i], bt.t[i][bt.rhs])
		}
	}
	// Duals: the reduced cost of row i's slack column is the shadow price of
	// that row (for a minimization with ≤ rows, it is ≥ 0 at optimality; a
	// flipped slack — nonbasic at its bound — cannot occur since slacks are
	// unbounded above).
	duals = sc.take(m)
	for i := 0; i < m; i++ {
		if sCol := sf.slackCol[i]; sCol >= 0 {
			duals[i] = bt.t[m][sCol]
		}
	}
	return xs, duals
}

// solveBounded runs Phase I + Phase II on standard-form data with native
// upper bounds. ubs[j] is the upper bound of standard-form column j
// (+Inf when absent). The third return value carries per-row duals (the
// reduced cost of each row's slack; 0 for rows without a usable slack).
func solveBounded(sf *standardForm, ubs []float64, tol float64, maxIter int, sc *Scratch) (Status, []float64, []float64, int) {
	m := len(sf.a)
	n := sf.nCols
	if m == 0 {
		xs := sc.take(n)
		for j, cj := range sf.c {
			if cj < -tol {
				if math.IsInf(ubs[j], 1) {
					return StatusUnbounded, nil, nil, 0
				}
				xs[j] = ubs[j]
			}
		}
		return StatusOptimal, xs, nil, 0
	}
	var needy []int
	for i := 0; i < m; i++ {
		if sf.slackCol[i] < 0 {
			needy = append(needy, i)
		}
	}
	nArt := len(needy)
	width := n + nArt + 1
	bt := &boundedTableau{
		rhs:     width - 1,
		basis:   make([]int, m),
		ub:      sc.take(width),
		flipped: make([]bool, width),
		basic:   make([]bool, width),
		nCols:   n,
	}
	bt.t = make([][]float64, m+1)
	for i := 0; i < m; i++ {
		bt.t[i] = sc.take(width)
		copy(bt.t[i], sf.a[i])
		bt.t[i][bt.rhs] = sf.b[i]
		bt.basis[i] = sf.slackCol[i]
	}
	bt.t[m] = sc.take(width)
	copy(bt.ub, ubs)
	for a := n; a < width-1; a++ {
		bt.ub[a] = math.Inf(1) // artificials are unbounded above
	}
	bt.ub[bt.rhs] = math.Inf(1)
	for a, i := range needy {
		bt.t[i][n+a] = 1
		bt.basis[i] = n + a
	}
	for _, bj := range bt.basis {
		bt.basic[bj] = true
	}

	iters := 0
	if nArt > 0 {
		// Phase I: minimize the artificial sum.
		for j := 0; j < width; j++ {
			var s float64
			for _, i := range needy {
				s += bt.t[i][j]
			}
			bt.t[m][j] = -s
		}
		for a := range needy {
			bt.t[m][n+a] = 0
		}
		var st Status
		iters, st = bt.iterate(n+nArt, tol, maxIter)
		if st != StatusOptimal {
			return st, nil, nil, iters
		}
		if -bt.t[m][bt.rhs] > 1e-7*(1+maxAbs(sf.b)) {
			return StatusInfeasible, nil, nil, iters
		}
		for i := 0; i < m; i++ {
			if bt.basis[i] < n {
				continue
			}
			pivoted := false
			for j := 0; j < n; j++ {
				if math.Abs(bt.t[i][j]) > tol {
					bt.pivotAt(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				for j := 0; j < n; j++ {
					bt.t[i][j] = 0
				}
				bt.t[i][bt.rhs] = 0
			}
		}
	}

	// Phase II objective in substituted coordinates: flipping x → u − x
	// negates the cost coefficient (constants drop out of the argmin).
	for j := 0; j < width; j++ {
		bt.t[m][j] = 0
	}
	for j := 0; j < n; j++ {
		cj := sf.c[j]
		if bt.flipped[j] {
			cj = -cj
		}
		bt.t[m][j] = cj
	}
	for i := 0; i < m; i++ {
		bj := bt.basis[i]
		if bj < n && !mat.Zero(bt.t[m][bj]) {
			cb := bt.t[m][bj]
			for j := 0; j < width; j++ {
				bt.t[m][j] -= cb * bt.t[i][j]
			}
		}
	}
	it2, st := bt.iterate(n, tol, maxIter)
	iters += it2
	if st != StatusOptimal {
		return st, nil, nil, iters
	}
	xs, duals := extractSolution(bt, sf, sc)
	return StatusOptimal, xs, duals, iters
}

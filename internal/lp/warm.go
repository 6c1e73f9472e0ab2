package lp

import (
	"math"

	"repro/internal/mat"
)

// Basis is a combinatorial snapshot of an optimal simplex basis: which
// standard-form column is basic in each row and which columns rest at their
// upper bound. It deliberately stores no tableau numbers — a warm re-entry
// rebuilds the tableau under the child's bounds and crashes onto this basis —
// so a Basis stays valid when bounds tighten, and it never aliases scratch
// memory.
type Basis struct {
	cols    []int  // cols[i] = standard-form column basic in row i
	flipped []bool // flipped[j]: column j rests at its upper bound
	nCols   int    // structural+slack column count of the captured form
	m       int    // row count of the captured form
	// d is the exit reduced-cost vector of the capturing solve (revised
	// engine only; nil otherwise). It is valid exactly when the re-entering
	// problem has the same objective as the captured one — the
	// Options.PreferDual contract — and then lets the dual re-entry skip its
	// entry pricing pass (one BTRAN plus a full pricing sweep). Advisory
	// numbers only: pivot selection uses them, certificates never do (the
	// infeasibility proof and the polish pass both reprice from scratch), so
	// carrying the parent's incremental drift is safe.
	d []float64
	// snap is the canonical LU factorization of this basis (revised engine,
	// Form path only; nil otherwise). A child re-entering from this basis
	// loads the factors instead of refactorizing — bit-identical by the
	// factorSnapshot invariant — unless Options.NoFactorReuse disables it.
	// Valid only within the branch & bound tree whose Form it was factorized
	// against; Scratch.BeginTree recycles it.
	snap *factorSnapshot
}

// captureBasis snapshots the tableau's basis. It returns nil when the basis
// is not reusable: any row whose basic column is an artificial (or a dead row
// zeroed in Phase I) cannot seed a warm start.
func captureBasis(bt *boundedTableau) *Basis {
	m := len(bt.basis)
	b := &Basis{
		cols:    make([]int, m),
		flipped: make([]bool, bt.nCols),
		nCols:   bt.nCols,
		m:       m,
	}
	for i, c := range bt.basis {
		if c >= bt.nCols {
			return nil
		}
		b.cols[i] = c
	}
	copy(b.flipped, bt.flipped[:bt.nCols])
	return b
}

// reducedCosts maps the tableau's objective row back to the original
// variables. For original variable j: rc > 0 means x_j is nonbasic at its
// lower bound and raising it by δ worsens the objective by rc·δ; rc < 0 means
// x_j is nonbasic at its upper bound and lowering it costs |rc|·δ; 0 carries
// no information (basic, free-split, or degenerate).
func reducedCosts(bt *boundedTableau, sf *standardForm, n int, tol float64) []float64 {
	m := len(bt.basis)
	rc := make([]float64, n)
	for j := 0; j < n; j++ {
		if sf.neg[j] >= 0 {
			continue // free variable split: no resting bound
		}
		col := sf.pos[j]
		if bt.isBasic(col) {
			continue
		}
		e := bt.t[m][col] // ≥ 0 at optimality, substituted coordinates
		if e <= tol {
			continue
		}
		// Substituted column rests at 0. Unflipped: x′ at its lower bound,
		// rc_{x′} = +e. Flipped (x′ = u − v): x′ at its upper bound,
		// rc_{x′} = −e.
		rcStd := e
		if bt.flipped[col] {
			rcStd = -e
		}
		// x = shift + sign·x′, so sign = −1 (the x = ub − x′ substitution)
		// swaps which original bound the variable rests at.
		rc[j] = sf.sign[j] * rcStd
	}
	return rc
}

// crashPivTol rejects crash pivots whose magnitude suggests a numerically
// singular basis; the warm attempt then falls back to the cold path.
const crashPivTol = 1e-7

// solveWarmAttempt re-enters the simplex from a previously captured basis:
// rebuild the standard form under the (tightened) bounds, apply the captured
// bound flips, crash the basis in with Gauss-Jordan pivots, restore the
// Phase-II objective row, repair primal feasibility with dual-simplex-style
// pivots (the parent-optimal basis stays dual feasible when only bounds
// change), and polish with the primal iterate. The second return value is
// false whenever the attempt cannot certify an optimal solution — shape
// mismatch, singular crash pivot, repair dead-end (including genuinely
// infeasible children), or any non-optimal polish — and the caller must run
// the cold path, which keeps status classification and error behavior
// identical to a cold solve.
func solveWarmAttempt(p *Problem, n int, opt Options, tol float64, sc *Scratch, warm *Basis) (*Result, bool) {
	reserveFor(p, n, sc)
	sf, err := toStandardForm(p, n, sc)
	if err != nil {
		return nil, false
	}
	return warmAttemptSF(p, n, sf, opt, tol, sc, warm)
}

// warmAttemptSF is the standard-form-independent tail of the warm attempt,
// shared between solveWarmAttempt (which builds the form per solve) and
// Form.SolveWarm (which instantiates a precompiled form). The scratch must
// already be reserved; sf may alias scratch or Form-owned storage — it is
// read-only here.
func warmAttemptSF(p *Problem, n int, sf *standardForm, opt Options, tol float64, sc *Scratch, warm *Basis) (*Result, bool) {
	m := len(sf.a)
	if m == 0 || warm.m != m || warm.nCols != sf.nCols {
		return nil, false
	}
	nCols := sf.nCols
	width := nCols + 1 // no artificials on the warm path
	bt := &boundedTableau{
		rhs:     width - 1,
		basis:   make([]int, m),
		ub:      sc.takeNoZero(width), // fully overwritten by the copy + rhs below
		flipped: make([]bool, width),
		basic:   make([]bool, width),
		nCols:   nCols,
	}
	bt.t = make([][]float64, m+1)
	for i := 0; i < m; i++ {
		// The copy covers [0, nCols) and the rhs assignment the final column,
		// so no zero fill is needed (width = nCols+1: no artificials).
		bt.t[i] = sc.takeNoZero(width)
		copy(bt.t[i], sf.a[i])
		bt.t[i][bt.rhs] = sf.b[i]
	}
	bt.t[m] = sc.take(width) // objective row stays zero until after the crash
	copy(bt.ub, sf.colUB)
	bt.ub[bt.rhs] = math.Inf(1)

	// Re-apply the captured bound flips. A flip needs a finite upper bound;
	// bound tightening cannot un-finite an upper bound, so a mismatch means
	// the basis belongs to a structurally different problem.
	for j := 0; j < nCols; j++ {
		if warm.flipped[j] {
			if math.IsInf(bt.ub[j], 1) {
				return nil, false
			}
			bt.flip(j)
		}
	}

	// Crash the basis in. The captured cols are a basis *set* — which row each
	// column was basic in depends on the parent's pivot history and need not
	// survive the rebuild. Slack columns go first: in the freshly built
	// tableau slack s of inequality row i is ±e_i, so assigning it to its own
	// row costs one row normalization instead of a dense pivot, and — because
	// no later pivot row can then carry a nonzero in that slack column — the
	// column stays unit through the structural pivots. (Cramer expansion
	// along the unit column shows the remaining rows × structural columns
	// stay nonsingular, so this assignment never loses a recoverable basis.)
	// Structural columns follow, pivoting on the largest-magnitude entry
	// among still-unassigned rows (partial pivoting). Failing to find a
	// usable pivot means the basis is (numerically) singular under the
	// child's data.
	res := &Result{Status: StatusOptimal, Warm: true}
	assigned := make([]bool, m)
	nStruct := nCols - len(p.Aub)
	for _, col := range warm.cols {
		if col >= nCols || bt.basic[col] {
			return nil, false
		}
		if col < nStruct {
			continue // structural columns crash in the second pass
		}
		row := len(p.Aeq) + (col - nStruct)
		piv := bt.t[row][col]
		if math.Abs(piv) <= crashPivTol {
			return nil, false
		}
		// Exactness is the point: a slack already at +1 (the common,
		// unnegated-row case) must skip the scaling loop without perturbing
		// the row by a multiply with 1/piv ≈ 1.
		//birplint:ignore floateq
		if piv != 1 {
			inv := 1 / piv
			ri := bt.t[row]
			for j := range ri {
				ri[j] *= inv
			}
			ri[col] = 1
		}
		assigned[row] = true
		bt.basis[row] = col
		bt.basic[col] = true
	}
	for _, col := range warm.cols {
		if col >= nStruct {
			continue
		}
		best, bestAbs := -1, crashPivTol
		for i := 0; i < m; i++ {
			if assigned[i] {
				continue
			}
			if a := math.Abs(bt.t[i][col]); a > bestAbs {
				best, bestAbs = i, a
			}
		}
		if best < 0 {
			return nil, false
		}
		assigned[best] = true
		// pivotAt clears bt.basic[bt.basis[row]]; rows start at basis=0, so
		// seed the slot with the column we are about to make basic.
		bt.basis[best] = col
		bt.basic[col] = true
		bt.pivotAt(best, col)
		res.CrashPivots++
	}

	// Phase-II objective row in substituted coordinates, then eliminate the
	// basic columns so the row holds reduced costs. Because the cost vector is
	// unchanged from the parent solve, this row is the parent's optimal
	// (dual-feasible) row: only the rhs and bounds moved.
	objRow := bt.t[m]
	for j := 0; j < nCols; j++ {
		cj := sf.c[j]
		if bt.flipped[j] {
			cj = -cj
		}
		objRow[j] = cj
	}
	for i := 0; i < m; i++ {
		bj := bt.basis[i]
		if cb := objRow[bj]; !mat.Zero(cb) {
			axpyNeg(objRow, bt.t[i][:width], cb)
			objRow[bj] = 0
		}
	}

	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 20*(m+nCols) + 200
	}
	if !repairFeasibility(bt, tol, maxIter, res) {
		return nil, false
	}

	// Polish: the repair restores primal feasibility and preserves dual
	// feasibility up to numerical drift, so this usually certifies optimality
	// in zero iterations. Any non-optimal outcome (stall, drift-induced
	// unboundedness) falls back to the cold path for a trustworthy answer.
	iters, st := bt.iterate(nCols, tol, maxIter)
	res.Iterations = iters
	if st != StatusOptimal {
		return nil, false
	}

	// Paranoid final scan: crash pivots on an ill-conditioned basis can leave
	// residual infeasibility that the reduced-cost test cannot see.
	feasTol := 1e-7 * (1 + maxAbs(sf.b))
	for i := 0; i < m; i++ {
		bi := bt.t[i][bt.rhs]
		if bi < -feasTol {
			return nil, false
		}
		if u := bt.ub[bt.basis[i]]; !math.IsInf(u, 1) && bi > u+feasTol {
			return nil, false
		}
	}

	xs, duals := extractSolution(bt, sf, sc)
	finish(p, n, opt, tol, sf, bt, xs, duals, res)
	return res, true
}

// repairFeasibility runs dual-simplex-style pivots until every basic variable
// sits inside its bounds. A basic variable above its upper bound is first
// flipped (x ← u − x) and its row renormalized, turning the violation into a
// negative rhs; a negative-rhs row then pivots against the entering column
// that minimizes the dual ratio objRow[j]/(−row[j]) (ties to the smallest
// index, keeping the repair deterministic). Returns false on a dead-end (no
// admissible entering column — the child is infeasible or the basis is too
// degraded) or when the pivot budget runs out.
func repairFeasibility(bt *boundedTableau, tol float64, maxIter int, res *Result) bool {
	m := len(bt.basis)
	objRow := bt.t[m]
	for iter := 0; iter < maxIter; iter++ {
		// Normalize upper-bound violations into negative-rhs violations.
		for i := 0; i < m; i++ {
			bj := bt.basis[i]
			u := bt.ub[bj]
			if math.IsInf(u, 1) || bt.t[i][bt.rhs] <= u+tol {
				continue
			}
			bt.flip(bj) // row i becomes: −1·x′ column, rhs − u
			ri := bt.t[i]
			for j := range ri {
				ri[j] = -ri[j]
			}
		}
		// Most-violated row, ties to the smallest index.
		row := -1
		worst := -tol
		for i := 0; i < m; i++ {
			if bi := bt.t[i][bt.rhs]; bi < worst {
				worst = bi
				row = i
			}
		}
		if row < 0 {
			return true
		}
		// Dual ratio test over nonbasic columns that can absorb the violation.
		enter := -1
		bestRatio := math.Inf(1)
		ri := bt.t[row]
		for j := 0; j < bt.nCols; j++ {
			if ri[j] >= -tol || bt.basic[j] {
				continue
			}
			ratio := objRow[j] / -ri[j]
			if ratio < bestRatio-tol {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			return false
		}
		bt.pivotAt(row, enter)
		res.RepairPivots++
	}
	return false
}

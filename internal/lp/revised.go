package lp

import "math"

// Sparse revised simplex engine.
//
// Unlike a dense tableau, nothing here materializes B⁻¹A:
// the constraint matrix stays in CSC form, the basis lives as an LU
// factorization with product-form eta updates (factor.go), and each iteration
// does two triangular solves (BTRAN for pricing, FTRAN for the entering
// column) plus an O(nnz) pricing sweep. Bound handling is native: a nonbasic
// variable rests at 0 or at its upper bound (atUpper), the rhs is adjusted by
// the at-upper columns, and the ratio test admits bound flips — no column
// substitution is ever performed, so values are always in original
// (unflipped) standard-form coordinates.
//
// The engine adds a dual simplex path (dualRepair) for warm re-entry: after a
// branch & bound bound tightening the parent basis is dual feasible and
// primal infeasible, the textbook dual-simplex entry state, and a handful of
// dual pivots restores feasibility without a full cold solve.
//
// Determinism: every selection rule (Dantzig pricing with smallest-index
// ties, Bland's rule after a degenerate stall, most-violated-row dual
// selection with smallest-index ties, the fixed refactorEvery trigger) is a
// pure function of the input bits, so solves are bit-identical across runs
// and worker counts — the repo-wide contract.

// revised-engine tolerances: dualProofTol gates when a dual dead-end is
// trusted as an infeasibility certificate (the reduced costs must be dual
// feasible within this slack), revPivotTol rejects FTRAN pivot elements too
// small to divide by.
const (
	dualProofTol = 1e-7
	revPivotTol  = 1e-9
)

// uniqueMargin is the reduced-cost magnitude above which a nonbasic column
// counts as strictly priced out for Result.Unique. Reduced costs of tied
// columns come out of BTRAN and the pricing sweep as rounding noise near
// 1e-15 relative to the costs, so 1e-7 sits far from both that noise and
// the scheduler's stage-1 costs (transfer cost 1e-3 up to the penalties).
const uniqueMargin = 1e-7

// dualRepair outcomes.
const (
	repairDone       = iota // primal feasible, ready for the polish pass
	repairStall             // numerical dead-end or budget exhausted: fall back
	repairInfeasible        // certified infeasible (dual unbounded from a dual-feasible start)
)

// revEngine is the reusable revised-simplex state. One lives lazily inside
// each Scratch, so the eta file, LU storage, and work vectors follow the same
// amortization discipline as the float arena; results never alias it.
type revEngine struct {
	f basisFactor

	m, nCols, nArt, width int

	csc    *cscMatrix // structural+slack columns; artificials are virtual
	ownCSC cscMatrix  // backing store for non-Form paths

	artRow  []int32   // artRow[a] = row of artificial column nCols+a
	artSign []float64 // ±1 coefficient of that artificial (sign of the rhs)

	basis   []int32   // basis[i] = column basic in row i
	inRow   []int32   // inRow[j] = row where j is basic, or −1
	atUpper []bool    // nonbasic column j rests at its upper bound
	ub      []float64 // column upper bounds, length width
	cost    []float64 // active phase costs, length width

	b     []float64 // standard-form rhs, length m
	xB    []float64 // basic variable values
	y     []float64 // BTRAN work vector
	w     []float64 // FTRAN work vector (entering column image)
	d     []float64 // reduced costs at exit, length width
	alpha []float64 // dual ratio-test row sensitivities, length width

	refactors int
	etaTotal  int

	// basisArena recycles captured Basis objects across the nodes of one
	// branch & bound tree (Form path only). Those bases are referenced only
	// by that tree, so Scratch.BeginTree resets basisUsed and the next tree
	// reuses the storage.
	basisArena []*Basis
	basisUsed  int
	// captureDst, when non-nil, is the caller-owned Basis the next capture
	// regrows in place (SolveWarmInto), taking precedence over the arena.
	captureDst *Basis
}

func (sc *Scratch) revived() *revEngine {
	if sc.rev == nil {
		sc.rev = &revEngine{}
	}
	return sc.rev
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// init sizes the engine for an m×nCols standard form with nArt artificial
// columns and copies in the per-solve data (rhs, bounds). csc may be nil, in
// which case the matrix is compressed from sf.a into the engine-owned store.
func (e *revEngine) init(sf *standardForm, csc *cscMatrix, nArt int) {
	m, nCols := len(sf.a), sf.nCols
	e.m, e.nCols, e.nArt, e.width = m, nCols, nArt, nCols+nArt
	if csc == nil {
		buildCSC(&e.ownCSC, sf.a, m, nCols)
		csc = &e.ownCSC
	}
	e.csc = csc
	w := e.width
	e.artRow = growI32(e.artRow, nArt)
	e.artSign = growF64(e.artSign, nArt)
	e.basis = growI32(e.basis, m)
	e.inRow = growI32(e.inRow, w)
	e.atUpper = growBool(e.atUpper, w)
	e.ub = growF64(e.ub, w)
	e.cost = growF64(e.cost, w)
	e.b = growF64(e.b, m)
	e.xB = growF64(e.xB, m)
	e.y = growF64(e.y, m)
	e.w = growF64(e.w, m)
	e.d = growF64(e.d, w)
	e.alpha = growF64(e.alpha, w)
	copy(e.b, sf.b)
	copy(e.ub, sf.colUB)
	for j := nCols; j < w; j++ {
		e.ub[j] = math.Inf(1)
	}
	for j := 0; j < w; j++ {
		e.inRow[j] = -1
		e.atUpper[j] = false
	}
	e.refactors = 0
	e.etaTotal = 0
}

// colLoad scatters the current basis column of row i into dst (length m,
// pre-zeroed by factorize's bulk clear) for the LU factorization. Artificial
// columns are virtual ±unit vectors.
func (e *revEngine) colLoad(i int, dst []float64) {
	col := int(e.basis[i])
	if col < e.nCols {
		e.csc.scatter(col, 1, dst)
	} else {
		a := col - e.nCols
		dst[e.artRow[a]] = e.artSign[a]
	}
}

func (e *revEngine) factorize(singularTol float64) bool {
	if !e.f.factorize(e.m, e.colLoad, singularTol) {
		return false
	}
	e.refactors++
	return true
}

// computeXB recomputes the basic values from the rhs and the at-upper
// nonbasic set: xB = B⁻¹(b − Σ_{j at upper} u_j·A_j).
func (e *revEngine) computeXB() {
	copy(e.xB[:e.m], e.b[:e.m])
	for j := 0; j < e.nCols; j++ {
		if e.inRow[j] < 0 && e.atUpper[j] {
			if u := e.ub[j]; u > 0 {
				e.csc.scatter(j, -u, e.xB)
			}
		}
	}
	e.f.ftran(e.xB[:e.m])
}

// refactorize is the deterministic eta-file reset: rebuild the LU from the
// current basis and recompute xB from scratch, wiping accumulated drift.
func (e *revEngine) refactorize() bool {
	if !e.factorize(luColdSingularTol) {
		return false
	}
	e.computeXB()
	return true
}

// priceY computes the simplex multipliers y = B⁻ᵀ·c_B into e.y.
func (e *revEngine) priceY() {
	for i := 0; i < e.m; i++ {
		e.y[i] = e.cost[e.basis[i]]
	}
	e.f.btran(e.y[:e.m])
}

// ftranColumn computes w = B⁻¹·A_j into e.w.
func (e *revEngine) ftranColumn(j int) {
	for i := 0; i < e.m; i++ {
		e.w[i] = 0
	}
	e.csc.scatter(j, 1, e.w)
	e.f.ftran(e.w[:e.m])
}

// pivot replaces the basic variable of row r with entering column q (whose
// FTRAN image is in e.w), records the eta update, and refactorizes at the
// fixed trigger. leaveToUpper says the leaving variable exits at its upper
// bound. entVal is the entering variable's new value. Returns false on a
// numerically unusable pivot (caller falls back).
func (e *revEngine) pivot(r, q int, entVal float64, leaveToUpper bool) bool {
	l := int(e.basis[r])
	e.inRow[l] = -1
	e.atUpper[l] = leaveToUpper
	e.basis[r] = int32(q)
	e.inRow[q] = int32(r)
	e.atUpper[q] = false
	e.xB[r] = entVal
	if !e.f.appendEta(r, e.w[:e.m]) {
		return false
	}
	e.etaTotal++
	if e.f.etaCount() >= refactorEvery {
		return e.refactorize()
	}
	return true
}

// primal runs the bounded-variable revised primal simplex until optimality,
// unboundedness, or the iteration budget. Entering candidates are the
// structural+slack columns only (artificials may leave but never re-enter).
// Dantzig pricing with smallest-index ties; Bland's rule after a degenerate
// stall. The bool result is false on numerical failure.
func (e *revEngine) primal(tol float64, maxIter int) (int, Status, bool) {
	m, n := e.m, e.nCols
	degenerate, bland := 0, false
	for iter := 1; iter <= maxIter; iter++ {
		e.priceY()
		e.csc.rowSweep(e.y[:m], e.alpha[:n])
		enter := -1
		sigma := 1.0
		if bland {
			for j := 0; j < n; j++ {
				if e.inRow[j] >= 0 {
					continue
				}
				dj := e.cost[j] - e.alpha[j]
				e.d[j] = dj
				if !e.atUpper[j] && dj < -tol {
					enter, sigma = j, 1
					break
				}
				if e.atUpper[j] && dj > tol {
					enter, sigma = j, -1
					break
				}
			}
		} else {
			best := tol
			for j := 0; j < n; j++ {
				if e.inRow[j] >= 0 {
					continue
				}
				dj := e.cost[j] - e.alpha[j]
				e.d[j] = dj
				score := -dj
				if e.atUpper[j] {
					score = dj
				}
				if score > best {
					best = score
					enter = j
					if e.atUpper[j] {
						sigma = -1
					} else {
						sigma = 1
					}
				}
			}
		}
		if enter < 0 {
			// The sweep that certifies optimality is also the exit pricing:
			// e.d now holds every nonbasic reduced cost under the final basis,
			// so the extraction layer needs no separate repricing pass.
			for i := 0; i < m; i++ {
				e.d[e.basis[i]] = 0
			}
			return iter - 1, StatusOptimal, true
		}
		e.ftranColumn(enter)
		// Ratio test: the entering variable moves off its bound by t ≥ 0 until
		//   (a) a basic variable falls to 0,
		//   (b) a basic variable climbs to its (finite) upper bound, or
		//   (c) the entering variable reaches its own opposite bound.
		limit := e.ub[enter] // case (c); +Inf when unbounded above
		leave := -1
		leaveToUpper := false
		for i := 0; i < m; i++ {
			sw := sigma * e.w[i]
			if sw > tol { // case (a)
				ratio := e.xB[i] / sw
				if ratio < limit-tol || (ratio < limit+tol && leave >= 0 && e.basis[i] < e.basis[leave]) {
					limit, leave, leaveToUpper = ratio, i, false
				}
			} else if sw < -tol { // case (b)
				u := e.ub[e.basis[i]]
				if math.IsInf(u, 1) {
					continue
				}
				ratio := (u - e.xB[i]) / (-sw)
				if ratio < limit-tol || (ratio < limit+tol && leave >= 0 && e.basis[i] < e.basis[leave]) {
					limit, leave, leaveToUpper = ratio, i, true
				}
			}
		}
		if math.IsInf(limit, 1) {
			return iter, StatusUnbounded, true
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
		step := sigma * limit
		//birplint:ignore floateq
		if step != 0 {
			for i := 0; i < m; i++ {
				e.xB[i] -= step * e.w[i]
			}
		}
		if leave < 0 {
			// Case (c): pure bound flip, no basis change.
			e.atUpper[enter] = !e.atUpper[enter]
			continue
		}
		start := 0.0
		if e.atUpper[enter] {
			start = e.ub[enter]
		}
		if !e.pivot(leave, enter, start+step, leaveToUpper) {
			return iter, StatusOptimal, false
		}
	}
	return maxIter, StatusIterLimit, true
}

// dualRepair restores primal feasibility with dual-simplex pivots: pick the
// most out-of-bounds basic variable (ties to the smallest row after a stall,
// smallest violation row otherwise), price the leaving row with BTRAN, run
// the bounded dual ratio test over admissible entering columns (minimum
// |d|/|α| ratio, ties to the smallest column), and pivot. The entering
// variable may overshoot its own bound — that simply re-enters the loop as a
// new violation. A dead-end (no admissible column) certifies infeasibility
// when freshly recomputed reduced costs are dual feasible within
// dualProofTol; otherwise it is a numerical stall and the caller falls back
// to a cold solve.
//
// The caller must seed e.d before entry — either priceDual (fresh) or the
// captured exit costs of a same-objective parent (Basis.d). Across pivots d is
// maintained incrementally (d ← d − γ·α with γ the dual step), so the
// per-iteration work is one BTRAN for the leaving row plus one sparse pricing
// sweep for α — half the cost of recomputing d from scratch each time. The
// polish pass afterwards reprices in full, so neither the seed's provenance
// nor incremental drift ever reaches a certificate.
func (e *revEngine) dualRepair(tol float64, maxIter int, allowProof bool) (pivots int, outcome int) {
	m, n := e.m, e.nCols
	degenerate, smallestRow := 0, false
	for iter := 0; iter < maxIter; iter++ {
		// Leaving row: the basic variable most outside [0, ub].
		row, above := -1, false
		worst := tol
		for i := 0; i < m; i++ {
			if v := -e.xB[i]; v > worst {
				worst, row, above = v, i, false
				if smallestRow {
					break
				}
				continue
			}
			u := e.ub[e.basis[i]]
			if math.IsInf(u, 1) {
				continue
			}
			if v := e.xB[i] - u; v > worst {
				worst, row, above = v, i, true
				if smallestRow {
					break
				}
			}
		}
		if row < 0 {
			return pivots, repairDone
		}
		// Leaving-row sensitivities: α_j = (B⁻¹A_j)_row = ρ·A_j, ρ = B⁻ᵀe_row.
		// ρ is sparse (unit rhs through a slack-heavy basis), so the row
		// sweep prices every column in one pass over ρ's support.
		for i := 0; i < m; i++ {
			e.y[i] = 0
		}
		e.y[row] = 1
		e.f.btran(e.y[:m])
		e.csc.rowSweep(e.y[:m], e.alpha[:n])
		// Bounded dual ratio test. Admissible directions move the leaving
		// variable toward the bound it violated:
		//   below 0, exits at lower:  at-lower j needs α<0, at-upper j needs α>0
		//   above ub, exits at upper: at-lower j needs α>0, at-upper j needs α<0
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < n; j++ {
			if e.inRow[j] >= 0 {
				continue
			}
			alpha := e.alpha[j]
			var admissible bool
			if above {
				admissible = (!e.atUpper[j] && alpha > tol) || (e.atUpper[j] && alpha < -tol)
			} else {
				admissible = (!e.atUpper[j] && alpha < -tol) || (e.atUpper[j] && alpha > tol)
			}
			if !admissible {
				continue
			}
			// Clamp the reduced cost to its dual-feasible side so numerical
			// drift cannot produce a negative ratio.
			dj := e.d[j]
			if e.atUpper[j] {
				if dj > 0 {
					dj = 0
				}
			} else if dj < 0 {
				dj = 0
			}
			ratio := abs64(dj) / abs64(alpha)
			if ratio < bestRatio-tol {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			if allowProof && e.dualFeasibleFresh() {
				return pivots, repairInfeasible
			}
			return pivots, repairStall
		}
		e.ftranColumn(enter)
		pivAlpha := e.w[row]
		if abs64(pivAlpha) <= revPivotTol {
			return pivots, repairStall
		}
		target := 0.0
		if above {
			target = e.ub[e.basis[row]]
		}
		delta := (e.xB[row] - target) / pivAlpha
		//birplint:ignore floateq
		if delta != 0 {
			for i := 0; i < m; i++ {
				e.xB[i] -= delta * e.w[i]
			}
		}
		start := 0.0
		wasUpper := e.atUpper[enter]
		if wasUpper {
			start = e.ub[enter]
		}
		leaving := int(e.basis[row])
		if !e.pivot(row, enter, start+delta, above) {
			return pivots, repairStall
		}
		pivots++
		// Incremental dual update: the multipliers move along ρ by the dual
		// step γ = d_q/α_q (clamped d, so γ has the admissible sign), which
		// shifts every nonbasic reduced cost by −γ·α_j. The leaving variable
		// becomes nonbasic with α_l = 1 (its old column is e_row under B⁻¹),
		// hence d_l = −γ; the entering one becomes basic with d_q = 0.
		dq := e.d[enter]
		if wasUpper {
			if dq > 0 {
				dq = 0
			}
		} else if dq < 0 {
			dq = 0
		}
		gamma := dq / e.alpha[enter]
		//birplint:ignore floateq
		if gamma != 0 {
			for j := 0; j < n; j++ {
				if e.inRow[j] >= 0 {
					continue
				}
				e.d[j] -= gamma * e.alpha[j]
			}
		}
		e.d[enter] = 0
		e.d[leaving] = -gamma
		if abs64(delta) <= tol {
			degenerate++
			if degenerate > 3*m {
				smallestRow = true
			}
		} else {
			degenerate = 0
			smallestRow = false
		}
	}
	return pivots, repairStall
}

// priceDual computes the dual-repair entry reduced costs from scratch: one
// BTRAN for the multipliers plus a pricing sweep over the nonbasic columns.
func (e *revEngine) priceDual() {
	e.priceY()
	e.csc.rowSweep(e.y[:e.m], e.alpha[:e.nCols])
	for j := 0; j < e.nCols; j++ {
		if e.inRow[j] >= 0 {
			e.d[j] = 0
			continue
		}
		e.d[j] = e.cost[j] - e.alpha[j]
	}
}

// dualFeasibleFresh recomputes the reduced costs from scratch and reports
// whether they are dual feasible within dualProofTol — the gate for trusting
// a dual dead-end as an infeasibility certificate. Runs only at dead-ends, so
// its full-pricing cost is off the pivot path.
func (e *revEngine) dualFeasibleFresh() bool {
	e.priceY()
	e.csc.rowSweep(e.y[:e.m], e.alpha[:e.nCols])
	for j := 0; j < e.nCols; j++ {
		if e.inRow[j] >= 0 {
			continue
		}
		dj := e.cost[j] - e.alpha[j]
		if e.atUpper[j] {
			if dj > dualProofTol {
				return false
			}
		} else if dj < -dualProofTol {
			return false
		}
	}
	return true
}

// feasible is the paranoid exit scan: every basic value must sit inside its
// bounds within the rhs-scaled tolerance.
func (e *revEngine) feasible(feasTol float64) bool {
	for i := 0; i < e.m; i++ {
		v := e.xB[i]
		if v < -feasTol {
			return false
		}
		if u := e.ub[e.basis[i]]; !math.IsInf(u, 1) && v > u+feasTol {
			return false
		}
	}
	return true
}

// captureBasis snapshots the basis in its combinatorial format (nil when an
// artificial is still basic: such a basis cannot seed a warm start). A
// SolveWarmInto destination is regrown in place; otherwise, on the Form path
// the Basis object and its slices come from the per-tree arena (recycled by
// Scratch.BeginTree), and elsewhere they are freshly allocated, so long-lived
// captures outside a tree discipline stay safe.
func (e *revEngine) captureBasis() *Basis {
	var b *Basis
	if e.captureDst != nil {
		b = e.captureDst
	} else if e.csc != &e.ownCSC {
		if e.basisUsed < len(e.basisArena) {
			b = e.basisArena[e.basisUsed]
		} else {
			b = &Basis{}
			e.basisArena = append(e.basisArena, b)
		}
		e.basisUsed++
	} else {
		b = &Basis{}
	}
	b.nCols, b.m = e.nCols, e.m
	b.cols = growInt(b.cols, e.m)
	b.flipped = growBool(b.flipped, e.nCols)
	b.d = growF64(b.d, e.nCols)
	for i := 0; i < e.m; i++ {
		c := int(e.basis[i])
		if c >= e.nCols {
			return nil
		}
		b.cols[i] = c
	}
	for j := 0; j < e.nCols; j++ {
		b.flipped[j] = e.inRow[j] < 0 && e.atUpper[j]
	}
	// Exit reduced costs ride along so a same-objective dual re-entry
	// (PreferDual) can skip its entry pricing; see Basis.d.
	copy(b.d, e.d[:e.nCols])
	return b
}

// dualNondegenerate is the Result.Unique certificate: every nonbasic
// structural or slack column with room to move has |d_j| > uniqueMargin.
// Columns fixed at an upper bound of 0 (and the pinned artificials beyond
// nCols) cannot move, so they cannot open a tie.
func (e *revEngine) dualNondegenerate() bool {
	for j := 0; j < e.nCols; j++ {
		if e.inRow[j] < 0 && e.ub[j] > 0 && abs64(e.d[j]) <= uniqueMargin {
			return false
		}
	}
	return true
}

// reducedCosts maps the exit reduced costs back to the original variables
// with the semantics of Result.ReducedCosts: rc > 0 ⇒ resting at the lower
// bound, rc < 0 ⇒ resting at the upper bound, 0 ⇒ no information. In
// natural (unflipped) coordinates the reduced cost is d_j in both resting
// cases, so the mapping is just the sign factor.
func (e *revEngine) reducedCosts(sf *standardForm, n int, tol float64) []float64 {
	rc := make([]float64, n)
	for j := 0; j < n; j++ {
		if sf.neg[j] >= 0 {
			continue // free split: no resting bound
		}
		col := sf.pos[j]
		if e.inRow[col] >= 0 {
			continue
		}
		dj := e.d[col]
		if e.atUpper[col] {
			if dj >= -tol {
				continue
			}
		} else if dj <= tol {
			continue
		}
		rc[j] = sf.sign[j] * dj
	}
	return rc
}

// finishRev recovers the original-variable solution, objective, duals, and
// optional captures from the engine state.
// Requires the reduced costs in e.d to be current (primal's optimal exit
// guarantees this).
func (e *revEngine) finishRev(p *Problem, n int, opt Options, tol float64, sf *standardForm, sc *Scratch, res *Result) {
	xs := sc.take(e.nCols)
	for j := 0; j < e.nCols; j++ {
		if r := e.inRow[j]; r >= 0 {
			xs[j] = e.xB[r]
		} else if e.atUpper[j] {
			xs[j] = e.ub[j]
		}
	}
	x := sf.recover(xs)
	res.X = x
	for j := 0; j < n; j++ {
		res.Obj += p.C[j] * x[j]
	}
	res.IneqDuals = make([]float64, len(p.Aub))
	for i := range p.Aub {
		// Rows whose shifted rhs is negative are the ones toStandardForm
		// negates on the normalized path, which disqualifies their slack from
		// dual reporting there; mirror that so both row encodings agree.
		if row := len(p.Aeq) + i; sf.slackCol[row] >= 0 && sf.b[row] >= 0 {
			res.IneqDuals[i] = e.d[sf.slackCol[row]]
		}
	}
	res.Unique = e.dualNondegenerate()
	if opt.CaptureBasis {
		res.Basis = e.captureBasis()
	}
	if opt.WantReducedCosts {
		res.ReducedCosts = e.reducedCosts(sf, n, tol)
	}
	res.Refactorizations = e.refactors
	res.EtaLen = e.etaTotal
}

// revSolveCold is the cold path: two-phase primal simplex with sign-matched
// artificials. It does not require b ≥ 0 — rows whose slack cannot seed the
// basis (missing, negated, or negative rhs) get an artificial whose
// coefficient matches the rhs sign, so the Form's unnormalized compiled rows
// solve directly. The bool result is false on numerical failure. csc may be
// nil (compressed from sf.a).
func revSolveCold(p *Problem, n int, sf *standardForm, csc *cscMatrix, opt Options, tol float64, sc *Scratch, maxIter int) (*Result, bool) {
	m := len(sf.a)
	e := sc.revived()
	// Count artificials first: rows that can seed their slack need b ≥ 0 and
	// an un-negated (+1) slack column.
	nArt := 0
	for i := 0; i < m; i++ {
		if sf.slackCol[i] < 0 || sf.b[i] < 0 {
			nArt++
		}
	}
	e.init(sf, csc, nArt)
	a := 0
	for i := 0; i < m; i++ {
		if sf.slackCol[i] >= 0 && sf.b[i] >= 0 {
			e.basis[i] = int32(sf.slackCol[i])
			e.inRow[sf.slackCol[i]] = int32(i)
			continue
		}
		e.artRow[a] = int32(i)
		if sf.b[i] >= 0 {
			e.artSign[a] = 1
		} else {
			e.artSign[a] = -1
		}
		e.basis[i] = int32(e.nCols + a)
		e.inRow[e.nCols+a] = int32(i)
		a++
	}
	if !e.factorize(luColdSingularTol) {
		return nil, false
	}
	e.computeXB()

	res := &Result{Status: StatusOptimal}
	if nArt > 0 {
		// Phase I: minimize the artificial sum.
		for j := 0; j < e.nCols; j++ {
			e.cost[j] = 0
		}
		for k := 0; k < nArt; k++ {
			e.cost[e.nCols+k] = 1
		}
		iters, st, ok := e.primal(tol, maxIter)
		res.Iterations += iters
		if !ok || st == StatusUnbounded {
			// The phase-I objective is bounded below by 0; an "unbounded"
			// verdict can only be numerical noise.
			return nil, false
		}
		if st != StatusOptimal {
			res.Status = st
			return res, true
		}
		infeas := 0.0
		for i := 0; i < m; i++ {
			if int(e.basis[i]) >= e.nCols {
				infeas += e.xB[i]
			}
		}
		if infeas > 1e-7*(1+maxAbs(sf.b)) {
			res.Status = StatusInfeasible
			return res, true
		}
		// Pin the artificials at zero for phase II: a still-basic artificial
		// (degenerate or dead row) is forced out by the ratio test the moment
		// any pivot would move it, and can never re-enter (pricing is
		// restricted to structural+slack columns).
		for k := 0; k < nArt; k++ {
			e.ub[e.nCols+k] = 0
		}
	}

	for j := 0; j < e.nCols; j++ {
		e.cost[j] = sf.c[j]
	}
	for k := 0; k < nArt; k++ {
		e.cost[e.nCols+k] = 0
	}
	iters, st, ok := e.primal(tol, maxIter)
	res.Iterations += iters
	if !ok {
		return nil, false
	}
	if st != StatusOptimal {
		res.Status = st
		return res, true
	}
	if !e.feasible(1e-7 * (1 + maxAbs(sf.b))) {
		return nil, false
	}
	e.finishRev(p, n, opt, tol, sf, sc, res)
	return res, true
}

// revWarmAttempt re-enters the revised simplex from a captured basis: load
// the basis set and resting bounds, factorize, recompute xB under the child's
// bounds, repair primal feasibility with dual pivots, and certify with a
// primal polish plus the paranoid feasibility scan. With opt.PreferDual set —
// the caller guarantees only variable bounds changed since the basis was
// optimal, so it is dual feasible — a dual dead-end is returned as a
// certified StatusInfeasible instead of falling back to a cold solve; that is
// the warm-fallback killer for pruned branch & bound children. The bool
// result is false when the attempt cannot certify an answer (the caller runs
// the cold path, keeping classification identical to a cold solve).
func revWarmAttempt(p *Problem, n int, sf *standardForm, csc *cscMatrix, opt Options, tol float64, sc *Scratch, warm *Basis) (*Result, bool) {
	m := len(sf.a)
	if m == 0 || warm.m != m || warm.nCols != sf.nCols {
		return nil, false
	}
	e := sc.revived()
	e.init(sf, csc, 0)
	for i := 0; i < m; i++ {
		col := warm.cols[i]
		if col >= e.nCols || e.inRow[col] >= 0 {
			return nil, false
		}
		e.basis[i] = int32(col)
		e.inRow[col] = int32(i)
	}
	// Re-apply the captured resting bounds. A nonbasic column can only rest
	// at a finite upper bound; bound tightening never un-finites an upper
	// bound, so a mismatch means a structurally different problem.
	for j := 0; j < e.nCols; j++ {
		if warm.flipped[j] && e.inRow[j] < 0 {
			if math.IsInf(e.ub[j], 1) {
				return nil, false
			}
			e.atUpper[j] = true
		}
	}
	if !e.factorize(luWarmSingularTol) {
		return nil, false
	}
	e.computeXB()
	for j := 0; j < e.nCols; j++ {
		e.cost[j] = sf.c[j]
	}

	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 20*(m+e.nCols) + 200
	}
	res := &Result{Status: StatusOptimal, Warm: true, DualReentry: opt.PreferDual}
	if opt.PreferDual && warm.d != nil && len(warm.d) == e.nCols {
		// Bounds-only re-entry: the parent's exit reduced costs are this
		// basis's reduced costs under the unchanged objective, so the entry
		// pricing pass is redundant. Selection-only numbers — certificates
		// reprice (see dualRepair).
		copy(e.d[:e.nCols], warm.d)
	} else {
		e.priceDual()
	}
	pivots, outcome := e.dualRepair(tol, maxIter, opt.PreferDual)
	res.DualPivots = pivots
	res.Refactorizations = e.refactors
	res.EtaLen = e.etaTotal
	switch outcome {
	case repairInfeasible:
		res.Status = StatusInfeasible
		return res, true
	case repairStall:
		return nil, false
	}

	// Polish: the dual repair preserves dual feasibility up to drift, so this
	// usually certifies optimality in zero iterations.
	iters, st, ok := e.primal(tol, maxIter)
	res.Iterations = iters
	if !ok || st != StatusOptimal {
		return nil, false
	}
	if !e.feasible(1e-7 * (1 + maxAbs(sf.b))) {
		return nil, false
	}
	e.finishRev(p, n, opt, tol, sf, sc, res)
	return res, true
}

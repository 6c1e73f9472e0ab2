package lp

// Basis factorization for the revised simplex: a dense column-major LU with
// partial pivoting, extended by a product-form eta file so that pivots update
// the factorization in O(m + eta nnz) instead of refactorizing.
//
// Determinism contract: pivot row selection is largest |value| with ties
// broken by smallest row index; the eta file is rebuilt from scratch after a
// fixed number of updates (refactorEvery pivots), never on a wall-clock or
// condition-estimate trigger. Every decision is a pure function of the input
// bits, so solves are bit-identical across runs and worker counts.
//
// Math recap. After pivot k the new basis is B' = B·E with
//
//	E = I + (w − e_r)·e_rᵀ,   w = B⁻¹ A_q  (the FTRAN of the entering column)
//
// so E⁻¹ = I − (1/w_r)(w − e_r)e_rᵀ. FTRAN applies E⁻¹ factors in creation
// order after the LU solve; BTRAN applies their transposes in reverse order
// before the LUᵀ solve.

const (
	// refactorEvery is the deterministic refactorization trigger: after this
	// many eta updates the basis is refactorized from scratch and the basic
	// solution recomputed. A fixed pivot count (rather than drift estimates)
	// keeps the trigger, and therefore the whole pivot trajectory,
	// reproducible.
	refactorEvery = 64

	// luWarmSingularTol rejects wobbly pivots when factorizing a basis
	// inherited from another solve (warm re-entry): such a basis may be stale,
	// and falling back to a cold solve is cheap. luColdSingularTol is the
	// looser in-solve threshold: a basis built by our own tolerance-guarded
	// ratio tests is nonsingular unless something is numerically wrong.
	luWarmSingularTol = 1e-8
	luColdSingularTol = 1e-11
)

// basisFactor holds the LU factors of the current basis matrix plus the eta
// file of post-factorization pivots. Storage is reused across refactorizations
// and across solves (the owning revEngine lives in a Scratch).
type basisFactor struct {
	m  int
	lu []float64 // column-major m×m; L unit-lower, U upper
	// piv records the partial-pivoting row swaps: at elimination step k rows k
	// and piv[k] were exchanged (piv[k] >= k).
	piv []int32

	// Per-column nonzero extents of the factors, computed once per
	// factorization: lLast[k] is the largest row > k holding a nonzero L
	// multiplier in column k (k when the column has none), uFirst[k] the
	// smallest row < k holding a nonzero U entry (k when none). Slack-heavy
	// BIRP bases leave most L columns empty and U columns short, so bounding
	// the triangular-solve loops by these extents skips the bulk of the m²
	// scan. Skipped terms are exact zeros, so the solves stay bit-identical
	// to the full loops.
	lLast  []int32
	uFirst []int32

	// Eta file: update t replaced the basis column in row etaRow[t] with a
	// column whose FTRAN image w is stored as the diagonal etaDiag[t] = w_r
	// plus the off-diagonal sparse entries in [etaStart[t], etaStart[t+1]).
	etaRow   []int32
	etaDiag  []float64
	etaStart []int32
	etaInd   []int32
	etaVal   []float64
}

func (f *basisFactor) reset(m int) {
	f.m = m
	f.lu = growF64(f.lu, m*m)
	f.piv = growI32(f.piv, m)
	f.lLast = growI32(f.lLast, m)
	f.uFirst = growI32(f.uFirst, m)
	f.etaRow = f.etaRow[:0]
	f.etaDiag = f.etaDiag[:0]
	f.etaStart = append(f.etaStart[:0], 0)
	f.etaInd = f.etaInd[:0]
	f.etaVal = f.etaVal[:0]
}

func (f *basisFactor) etaCount() int { return len(f.etaRow) }

// factorize computes P·B = L·U for the basis whose column i is scattered by
// load(i, col) into a pre-zeroed col. Right-looking Gaussian elimination with
// partial pivoting;
// columns of a BIRP basis are mostly slacks (one nonzero), so the trailing
// update skips zero multiplier columns and is far cheaper than m³/3 in
// practice. Returns false when a pivot falls below singularTol.
func (f *basisFactor) factorize(m int, load func(i int, col []float64), singularTol float64) bool {
	f.reset(m)
	lu := f.lu
	// One bulk clear beats m per-column clears; load only scatters nonzeros.
	for i := range lu {
		lu[i] = 0
	}
	for i := 0; i < m; i++ {
		load(i, lu[i*m:(i+1)*m])
	}
	for k := 0; k < m; k++ {
		colK := lu[k*m : (k+1)*m]
		// Partial pivoting: largest |value| at or below the diagonal, ties to
		// the smallest row index.
		p, best := k, abs64(colK[k])
		for r := k + 1; r < m; r++ {
			if v := abs64(colK[r]); v > best {
				p, best = r, v
			}
		}
		if best <= singularTol {
			return false
		}
		f.piv[k] = int32(p)
		if p != k {
			for c := 0; c < m; c++ {
				col := lu[c*m : (c+1)*m]
				col[k], col[p] = col[p], col[k]
			}
		}
		piv := colK[k]
		anyMult := false
		for r := k + 1; r < m; r++ {
			colK[r] /= piv
			//birplint:ignore floateq
			if colK[r] != 0 {
				anyMult = true
			}
		}
		// Unit pivot columns (slacks, and any column already upper-triangular
		// here) have no multipliers, so the whole trailing update is a no-op;
		// most steps of a slack-heavy basis take this exit.
		if !anyMult {
			continue
		}
		for c := k + 1; c < m; c++ {
			col := lu[c*m : (c+1)*m]
			u := col[k]
			// Zero-multiplier skip: slack-heavy bases leave most of the
			// trailing block untouched. Exact zero test on purpose.
			//birplint:ignore floateq
			if u == 0 {
				continue
			}
			for r := k + 1; r < m; r++ {
				col[r] -= colK[r] * u
			}
		}
	}
	// Nonzero extents for the triangular solves. Scanned after elimination
	// because later row swaps permute the already-stored L multipliers; the
	// one m² pass here is repaid many times over by the bounded solve loops
	// (each basis factorization serves ~a dozen FTRANs/BTRANs).
	for k := 0; k < m; k++ {
		col := lu[k*m : (k+1)*m]
		last := k
		for r := m - 1; r > k; r-- {
			//birplint:ignore floateq
			if col[r] != 0 {
				last = r
				break
			}
		}
		f.lLast[k] = int32(last)
		first := k
		for r := 0; r < k; r++ {
			//birplint:ignore floateq
			if col[r] != 0 {
				first = r
				break
			}
		}
		f.uFirst[k] = int32(first)
	}
	return true
}

// ftran solves B·z = rhs in place (z == rhs on entry): permute, L-solve,
// U-solve, then the eta factors in creation order.
func (f *basisFactor) ftran(z []float64) {
	m := f.m
	lu := f.lu
	for k := 0; k < m; k++ {
		if p := f.piv[k]; int(p) != k {
			z[k], z[p] = z[p], z[k]
		}
	}
	for k := 0; k < m; k++ {
		zk := z[k]
		//birplint:ignore floateq
		if zk == 0 {
			continue
		}
		last := int(f.lLast[k])
		if last == k {
			continue
		}
		col := lu[k*m : (k+1)*m]
		for r := k + 1; r <= last; r++ {
			z[r] -= col[r] * zk
		}
	}
	for k := m - 1; k >= 0; k-- {
		// Skip-before-divide: 0/d is exactly 0, so zero entries (common with
		// a sparse FTRAN rhs) need neither the division nor the scatter.
		zk := z[k]
		//birplint:ignore floateq
		if zk == 0 {
			continue
		}
		col := lu[k*m : (k+1)*m]
		zk /= col[k]
		z[k] = zk
		//birplint:ignore floateq
		if zk == 0 {
			continue
		}
		for r := int(f.uFirst[k]); r < k; r++ {
			z[r] -= col[r] * zk
		}
	}
	for t := range f.etaRow {
		r := f.etaRow[t]
		//birplint:ignore floateq
		if z[r] == 0 {
			continue
		}
		zr := z[r] / f.etaDiag[t]
		z[r] = zr
		//birplint:ignore floateq
		if zr == 0 {
			continue
		}
		for k := f.etaStart[t]; k < f.etaStart[t+1]; k++ {
			z[f.etaInd[k]] -= f.etaVal[k] * zr
		}
	}
}

// btran solves Bᵀ·y = rhs in place: eta transposes in reverse creation order,
// then Uᵀ-solve, Lᵀ-solve, and the inverse permutation. Column-major storage
// makes both transpose solves walk contiguous memory.
func (f *basisFactor) btran(y []float64) {
	m := f.m
	lu := f.lu
	for t := len(f.etaRow) - 1; t >= 0; t-- {
		r := f.etaRow[t]
		s := y[r]
		for k := f.etaStart[t]; k < f.etaStart[t+1]; k++ {
			s -= f.etaVal[k] * y[f.etaInd[k]]
		}
		y[r] = s / f.etaDiag[t]
	}
	// Leading zeros of the rhs stay zero through the Uᵀ forward solve (row k
	// only mixes rows above it), so both loops can start at the first nonzero
	// — the dual ratio test's ρ = B⁻ᵀe_r rhs is a unit vector, making this
	// skip the dominant cost of the solve for late rows.
	nz := 0
	//birplint:ignore floateq
	for nz < m && y[nz] == 0 {
		nz++
	}
	for k := nz; k < m; k++ {
		col := lu[k*m : (k+1)*m]
		s := y[k]
		lo := int(f.uFirst[k])
		if lo < nz {
			lo = nz
		}
		for r := lo; r < k; r++ {
			s -= col[r] * y[r]
		}
		y[k] = s / col[k]
	}
	for k := m - 2; k >= 0; k-- {
		last := int(f.lLast[k])
		if last == k {
			continue
		}
		col := lu[k*m : (k+1)*m]
		s := y[k]
		for r := k + 1; r <= last; r++ {
			s -= col[r] * y[r]
		}
		y[k] = s
	}
	for k := m - 1; k >= 0; k-- {
		if p := f.piv[k]; int(p) != k {
			z := y
			z[k], z[p] = z[p], z[k]
		}
	}
}

// appendEta records a pivot (entering column with FTRAN image w, leaving row
// r) as a product-form update. Returns false when the pivot element is too
// small to invert safely, in which case the caller must refactorize or fail.
func (f *basisFactor) appendEta(r int, w []float64) bool {
	d := w[r]
	if abs64(d) < 1e-11 {
		return false
	}
	f.etaRow = append(f.etaRow, int32(r))
	f.etaDiag = append(f.etaDiag, d)
	for i, v := range w {
		//birplint:ignore floateq
		if i == r || v == 0 {
			continue
		}
		f.etaInd = append(f.etaInd, int32(i))
		f.etaVal = append(f.etaVal, v)
	}
	f.etaStart = append(f.etaStart, int32(len(f.etaInd)))
	return true
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

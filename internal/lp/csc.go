package lp

// Compressed sparse column storage for the standard-form constraint matrix.
//
// The revised simplex engine never forms a tableau: every per-iteration
// quantity is a product against the original matrix (pricing, BTRAN row
// extraction) or against one of its columns (FTRAN), so the matrix is stored
// once, column-major and sparse, and each iteration costs O(nnz) matrix work
// instead of a dense tableau's O(m·n) sweep. BIRP's per-slot
// programs are built from small constraint groups (a handful of nonzeros per
// column), which is exactly the regime where this wins.
type cscMatrix struct {
	m, n int
	ptr  []int32 // column j occupies [ptr[j], ptr[j+1]) of ind/val; len n+1
	ind  []int32 // row indices, ascending within a column
	val  []float64
	next []int32 // fill cursor reused across rebuilds (no per-solve alloc)

	// CSR mirror of the same nonzeros, for pricing sweeps against a sparse
	// vector: rowSweep walks only the rows where y is nonzero, which is the
	// whole point when y = B⁻ᵀe_r (the dual ratio test's ρ). Column indices
	// ascend within a row.
	rowPtr []int32 // row i occupies [rowPtr[i], rowPtr[i+1]) of rowCol/rowVal
	rowCol []int32
	rowVal []float64
}

// buildCSC compresses dense standard-form rows (each length n) into csc form,
// reusing dst's storage. Exact zeros are skipped; no tolerance is applied, so
// the sparse matrix is bit-identical to the dense rows it came from.
func buildCSC(dst *cscMatrix, rows [][]float64, m, n int) {
	dst.m, dst.n = m, n
	if cap(dst.ptr) < n+1 {
		dst.ptr = make([]int32, n+1)
	}
	dst.ptr = dst.ptr[:n+1]
	for j := range dst.ptr {
		dst.ptr[j] = 0
	}
	nnz := 0
	for i := 0; i < m; i++ {
		row := rows[i]
		for j := 0; j < n; j++ {
			// Structural-zero skip: exact comparison is the point — a
			// tolerance here would silently drop tiny true coefficients.
			//birplint:ignore floateq
			if row[j] != 0 {
				dst.ptr[j+1]++
				nnz++
			}
		}
	}
	for j := 0; j < n; j++ {
		dst.ptr[j+1] += dst.ptr[j]
	}
	if cap(dst.ind) < nnz {
		dst.ind = make([]int32, nnz)
		dst.val = make([]float64, nnz)
	}
	dst.ind = dst.ind[:nnz]
	dst.val = dst.val[:nnz]
	if cap(dst.next) < n {
		dst.next = make([]int32, n)
	}
	next := dst.next[:n]
	for j := 0; j < n; j++ {
		next[j] = dst.ptr[j]
	}
	for i := 0; i < m; i++ {
		row := rows[i]
		for j := 0; j < n; j++ {
			//birplint:ignore floateq
			if row[j] != 0 {
				k := next[j]
				dst.ind[k] = int32(i)
				dst.val[k] = row[j]
				next[j] = k + 1
			}
		}
	}
	// CSR mirror: the row-major fill order above is exactly CSR order.
	if cap(dst.rowPtr) < m+1 {
		dst.rowPtr = make([]int32, m+1)
	}
	dst.rowPtr = dst.rowPtr[:m+1]
	if cap(dst.rowCol) < nnz {
		dst.rowCol = make([]int32, nnz)
		dst.rowVal = make([]float64, nnz)
	}
	dst.rowCol = dst.rowCol[:nnz]
	dst.rowVal = dst.rowVal[:nnz]
	k := 0
	dst.rowPtr[0] = 0
	for i := 0; i < m; i++ {
		row := rows[i]
		for j := 0; j < n; j++ {
			//birplint:ignore floateq
			if row[j] != 0 {
				dst.rowCol[k] = int32(j)
				dst.rowVal[k] = row[j]
				k++
			}
		}
		dst.rowPtr[i+1] = int32(k)
	}
}

// dot returns v·A_j, the sparse inner product driving reduced-cost pricing.
func (a *cscMatrix) dot(j int, v []float64) float64 {
	var s float64
	for k := a.ptr[j]; k < a.ptr[j+1]; k++ {
		s += a.val[k] * v[a.ind[k]]
	}
	return s
}

// rowSweep computes out[j] = y·A_j for every column at once by accumulating
// over the rows where y is nonzero (out must have length n). Each out[j]
// receives its terms in ascending row order — the same order dot uses — so
// the results are bit-identical to n individual dots; the zero-row skip only
// elides exact-zero terms.
func (a *cscMatrix) rowSweep(y, out []float64) {
	for j := range out[:a.n] {
		out[j] = 0
	}
	for i := 0; i < a.m; i++ {
		yi := y[i]
		//birplint:ignore floateq
		if yi == 0 {
			continue
		}
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			out[a.rowCol[k]] += yi * a.rowVal[k]
		}
	}
}

// scatter adds f·A_j into dst (dense, length m).
func (a *cscMatrix) scatter(j int, f float64, dst []float64) {
	for k := a.ptr[j]; k < a.ptr[j+1]; k++ {
		dst[a.ind[k]] += f * a.val[k]
	}
}

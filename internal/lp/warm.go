package lp

// Basis is a combinatorial snapshot of an optimal simplex basis: which
// standard-form column is basic in each row and which columns rest at their
// upper bound. Its combinatorial part carries no numbers tied to the
// captured bounds — a warm re-entry refactorizes (or loads snap) and
// recomputes the basic values under the child's bounds — so a Basis stays
// valid when bounds tighten, and it never aliases scratch memory.
type Basis struct {
	cols    []int  // cols[i] = standard-form column basic in row i
	flipped []bool // flipped[j]: column j rests at its upper bound
	nCols   int    // structural+slack column count of the captured form
	m       int    // row count of the captured form
	// d is the exit reduced-cost vector of the capturing solve. It is valid
	// exactly when the re-entering problem has the same objective as the
	// captured one — the Options.PreferDual contract — and then lets the dual
	// re-entry skip its entry pricing pass (one BTRAN plus a full pricing sweep). Advisory
	// numbers only: pivot selection uses them, certificates never do (the
	// infeasibility proof and the polish pass both reprice from scratch), so
	// carrying the parent's incremental drift is safe.
	d []float64
	// snap is the canonical LU factorization of this basis (Form path only;
	// nil otherwise). A child re-entering from this basis loads the factors
	// instead of refactorizing — bit-identical by the factorSnapshot
	// invariant — unless Options.NoFactorReuse disables it.
	// Valid only within the branch & bound tree whose Form it was factorized
	// against; Scratch.BeginTree recycles it.
	snap *factorSnapshot
}

package lp

// Basis is a combinatorial snapshot of an optimal simplex basis: which
// standard-form column is basic in each row and which columns rest at their
// upper bound. It carries no numbers tied to the captured bounds — a warm
// re-entry refactorizes and recomputes the basic values under the child's
// bounds — so a Basis stays valid when bounds tighten, and it never aliases
// scratch memory.
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
}

// SolveWarmInto is SolveWarm with the optimal basis captured into dst instead
// of a fresh allocation: with opt.CaptureBasis set, an optimal solve regrows
// dst's slices in place and returns it as Result.Basis, so a caller that
// re-solves every period and keeps only its latest basis allocates nothing
// for it once dst has grown. dst may be warm itself, since the warm basis is
// read in full before anything is captured. A solve that captures no basis
// (not optimal, or an artificial still basic) may leave dst partly
// overwritten; the caller must then stop re-entering from it.
func SolveWarmInto(p *Problem, opt Options, sc *Scratch, warm, dst *Basis) (*Result, error) {
	if sc == nil {
		sc = NewScratch()
	}
	e := sc.revived()
	e.captureDst = dst
	res, err := SolveWarm(p, opt, sc, warm)
	e.captureDst = nil
	return res, err
}

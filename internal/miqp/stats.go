package miqp

import "fmt"

// Stats is the solver observability layer: per-solve counters that make the
// warm-start and presolve work attributable ("how many relaxations were
// avoided, how many warm starts stuck") and regressions visible without a
// profiler. Aggregation happens in the deterministic sequential merge, so the
// counters are bit-identical for every worker count, like the solution.
type Stats struct {
	// Nodes is the number of branch & bound nodes expanded (same quantity as
	// Result.Nodes, duplicated here so a Stats aggregate is self-contained).
	Nodes int `json:"nodes"`
	// Relaxations is the number of continuous relaxations solved.
	Relaxations int `json:"relaxations"`
	// WarmAttempts counts relaxations entered with a parent basis;
	// WarmHits those where the re-entry certified optimality, and
	// WarmFallbacks those that abandoned the basis and re-solved cold.
	WarmAttempts  int `json:"warm_attempts"`
	WarmHits      int `json:"warm_hits"`
	WarmFallbacks int `json:"warm_fallbacks"`
	// Pivots is the total simplex pivot work across all relaxations (crash +
	// repair + main-loop iterations); the quantity warm starting exists to cut.
	Pivots int `json:"pivots"`
	// LP kernel observability. DualReentries counts warm re-entries that
	// resolved through the dual simplex under the bounds-only-change
	// guarantee (including certified-infeasible children); DualPivots their
	// dual pivot work (a subset of Pivots); Refactorizations the basis LU
	// rebuilds (the deterministic eta-file trigger plus one per factorized
	// solve); EtaLength the total eta-file updates appended.
	DualReentries    int `json:"dual_reentries"`
	DualPivots       int `json:"dual_pivots"`
	Refactorizations int `json:"refactorizations"`
	EtaLength        int `json:"eta_length"`
	// FactorReuses is always 0: every warm re-entry factorizes its own basis
	// since the LU factor handoff was removed. It stays only because the
	// perfbench harness reads it (lp.factor_reuses_per_slot); the next
	// benchmark change drops it.
	FactorReuses int `json:"factor_reuses"`
	// PresolveFixedVars / PresolveTightenedBounds / PresolveRemovedRows count
	// the pre-root reductions; RootCutBounds counts reduced-cost bound
	// tightenings applied at the root once an incumbent exists.
	PresolveFixedVars       int `json:"presolve_fixed_vars"`
	PresolveTightenedBounds int `json:"presolve_tightened_bounds"`
	PresolveRemovedRows     int `json:"presolve_removed_rows"`
	RootCutBounds           int `json:"root_cut_bounds"`
	// Cross-slot reuse provenance (maintained by the scheduler's temporal
	// layer, not by SolveOpts itself). IncumbentSeeded counts solves entered
	// with the previous slot's repaired solution as the incumbent;
	// IncumbentRepaired those where the repair pass had to modify it to regain
	// feasibility; IncumbentRejected those where the seed failed validation
	// and the solve fell back to the greedy incumbent.
	IncumbentSeeded   int `json:"incumbent_seeded"`
	IncumbentRepaired int `json:"incumbent_repaired"`
	IncumbentRejected int `json:"incumbent_rejected"`
	// MemoHits counts per-edge plans served from the fingerprint cache without
	// invoking the solver (an edge whose problem is unchanged from the last
	// solved slot is one). DeltaSkippedEdges is always 0: the scheduler's
	// separate delta skip was a special case of the memo lookup and was
	// removed. It stays only because the perfbench harness reads it
	// (core.delta_skipped_edges); the next benchmark change drops it.
	MemoHits          int `json:"memo_hits"`
	DeltaSkippedEdges int `json:"delta_skipped_edges"`
}

// Add accumulates o into s (used by callers that aggregate across many
// SolveOpts calls, e.g. the per-slot scheduler).
func (s *Stats) Add(o Stats) {
	s.Nodes += o.Nodes
	s.Relaxations += o.Relaxations
	s.WarmAttempts += o.WarmAttempts
	s.WarmHits += o.WarmHits
	s.WarmFallbacks += o.WarmFallbacks
	s.Pivots += o.Pivots
	s.DualReentries += o.DualReentries
	s.DualPivots += o.DualPivots
	s.Refactorizations += o.Refactorizations
	s.EtaLength += o.EtaLength
	s.PresolveFixedVars += o.PresolveFixedVars
	s.PresolveTightenedBounds += o.PresolveTightenedBounds
	s.PresolveRemovedRows += o.PresolveRemovedRows
	s.RootCutBounds += o.RootCutBounds
	s.IncumbentSeeded += o.IncumbentSeeded
	s.IncumbentRepaired += o.IncumbentRepaired
	s.IncumbentRejected += o.IncumbentRejected
	s.MemoHits += o.MemoHits
}

// WarmHitRate is the fraction of warm attempts that certified optimality
// without falling back (0 when no attempts were made).
func (s Stats) WarmHitRate() float64 {
	if s.WarmAttempts == 0 {
		return 0
	}
	return float64(s.WarmHits) / float64(s.WarmAttempts)
}

// PivotsPerRelaxation is the average simplex pivot work per relaxation solve
// (0 when no relaxations were solved).
func (s Stats) PivotsPerRelaxation() float64 {
	if s.Relaxations == 0 {
		return 0
	}
	return float64(s.Pivots) / float64(s.Relaxations)
}

// String renders the compact one-line form used by birpbench -solverstats.
func (s Stats) String() string {
	return fmt.Sprintf(
		"nodes=%d relax=%d warm=%d/%d (%.1f%% hit, %d fallback) pivots=%d (%.1f/relax) dual(reentry=%d pivots=%d refactor=%d eta=%d) presolve(fix=%d tighten=%d drop-rows=%d root-cuts=%d) reuse(seed=%d rep=%d rej=%d memo=%d)",
		s.Nodes, s.Relaxations, s.WarmHits, s.WarmAttempts, 100*s.WarmHitRate(),
		s.WarmFallbacks, s.Pivots, s.PivotsPerRelaxation(),
		s.DualReentries, s.DualPivots, s.Refactorizations, s.EtaLength,
		s.PresolveFixedVars, s.PresolveTightenedBounds, s.PresolveRemovedRows, s.RootCutBounds,
		s.IncumbentSeeded, s.IncumbentRepaired, s.IncumbentRejected, s.MemoHits)
}

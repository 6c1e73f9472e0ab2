package miqp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// coldOptions disables both acceleration layers, yielding the pre-warm-start
// engine: every relaxation solved from scratch on the original row set.
func coldOptions() Options {
	return Options{DisableWarmStart: true, DisablePresolve: true}
}

// TestWarmVsColdEquivalence is the PR's correctness claim for the accelerated
// engine: warm-started relaxations and presolve reductions are pure speedups —
// on every instance the accelerated solve must reach the same optimal
// objective (within 1e-9) and the same integer assignment as the cold engine.
func TestWarmVsColdEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	warmUsed := 0
	for i := 0; i < 60; i++ {
		p := randomMILP(rng)
		warm, err := SolveOpts(p, Options{})
		if err != nil {
			t.Fatalf("instance %d warm: %v", i, err)
		}
		cold, err := SolveOpts(p, coldOptions())
		if err != nil {
			t.Fatalf("instance %d cold: %v", i, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("instance %d: status warm=%v cold=%v", i, warm.Status, cold.Status)
		}
		if warm.Status != StatusOptimal {
			continue
		}
		if math.Abs(warm.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
			t.Fatalf("instance %d: objective warm=%.12g cold=%.12g", i, warm.Obj, cold.Obj)
		}
		for j := range p.C {
			if p.Integer != nil && p.Integer[j] &&
				math.Round(warm.X[j]) != math.Round(cold.X[j]) {
				t.Fatalf("instance %d: integer var %d warm=%g cold=%g",
					i, j, warm.X[j], cold.X[j])
			}
		}
		warmUsed += warm.Stats.WarmHits
		if cold.Stats.WarmAttempts != 0 || cold.Stats.PresolveTightenedBounds != 0 {
			t.Fatalf("instance %d: cold engine reported acceleration counters %+v", i, cold.Stats)
		}
	}
	if warmUsed == 0 {
		t.Fatal("no instance exercised the warm-start path; the test is vacuous")
	}
}

// TestSolveOptsWorkerCountInvariantEngineConfigs repeats the worker-count
// invariance check for every engine configuration: both layers on (default),
// warm start off, presolve off, and fully cold. Each configuration must be
// deterministic in itself — Workers never changes the Result, including the
// aggregated Stats counters.
func TestSolveOptsWorkerCountInvariantEngineConfigs(t *testing.T) {
	configs := []struct {
		name string
		opt  Options
	}{
		{"default", Options{}},
		{"warm-off", Options{DisableWarmStart: true}},
		{"presolve-off", Options{DisablePresolve: true}},
		{"cold", coldOptions()},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			for i := 0; i < 12; i++ {
				p := randomMILP(rng)
				base := cfg.opt
				base.Workers = 1
				serial, err := SolveOpts(p, base)
				if err != nil {
					t.Fatalf("instance %d serial: %v", i, err)
				}
				par := cfg.opt
				par.Workers = 8
				got, err := SolveOpts(p, par)
				if err != nil {
					t.Fatalf("instance %d workers=8: %v", i, err)
				}
				if !reflect.DeepEqual(serial, got) {
					t.Fatalf("instance %d: workers=8 diverged from serial:\nserial: %+v\npar:    %+v",
						i, serial, got)
				}
			}
		})
	}
}

// TestFactorReuseKnobEquivalence pins the determinism contract of the
// persistent-factorization handoff: Options.NoFactorReuse must be
// solution-neutral AND search-neutral. Reusing a parent basis's LU factors is
// bit-identical to refactorizing the same basis, so toggling the knob may
// only move the work counters (Refactorizations, FactorReuses) — the solution
// vector, objective, node count and pivot count must not change. A drift in
// nodes or pivots would mean reuse altered the numerics, not just the
// accounting. Only instances whose reuse-on solve actually loaded a captured
// factorization count toward the contract.
func TestFactorReuseKnobEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	exercised := 0
	for i := 0; i < 88; i++ {
		p := randomMILP(rng)
		if i >= 80 {
			// A few wider instances with deeper trees (tens to hundreds of
			// nodes), where reused factors chain through many generations
			// of warm re-entries.
			p = wideMILP(rng)
		}
		on, err := SolveOpts(p, Options{Workers: 1})
		if err != nil {
			t.Fatalf("instance %d reuse on: %v", i, err)
		}
		off, err := SolveOpts(p, Options{Workers: 1, NoFactorReuse: true})
		if err != nil {
			t.Fatalf("instance %d reuse off: %v", i, err)
		}
		if off.Stats.FactorReuses != 0 {
			t.Fatalf("instance %d: NoFactorReuse run still reused factors %d times", i, off.Stats.FactorReuses)
		}
		if on.Stats.FactorReuses == 0 {
			continue
		}
		exercised++
		if on.Status != off.Status || !reflect.DeepEqual(on.X, off.X) ||
			math.Float64bits(on.Obj) != math.Float64bits(off.Obj) || on.Nodes != off.Nodes {
			t.Fatalf("instance %d: result moved with the NoFactorReuse knob\nreuse on:  %v x=%v obj=%v nodes=%d\nreuse off: %v x=%v obj=%v nodes=%d",
				i, on.Status, on.X, on.Obj, on.Nodes, off.Status, off.X, off.Obj, off.Nodes)
		}
		// Neutralize the two counters the knob is allowed to move, then
		// demand every remaining counter — nodes, relaxations, pivots, dual
		// work, eta updates, presolve — be bit-identical.
		sOn, sOff := on.Stats, off.Stats
		sOn.Refactorizations, sOff.Refactorizations = 0, 0
		sOn.FactorReuses, sOff.FactorReuses = 0, 0
		if sOn != sOff {
			t.Fatalf("instance %d: search counters moved with the NoFactorReuse knob\nreuse on:  %+v\nreuse off: %+v", i, sOn, sOff)
		}
	}
	if exercised < 10 {
		t.Fatalf("only %d instances reused a factorization; the knob test is near vacuous", exercised)
	}
}

// wideMILP draws a 40-variable, 8-row packing MILP whose branch & bound trees
// run to tens or hundreds of nodes.
func wideMILP(rng *rand.Rand) *Problem {
	const n, m = 40, 8
	p := &Problem{C: make([]float64, n), Ub: make([]float64, n), Integer: make([]bool, n)}
	for j := 0; j < n; j++ {
		p.C[j] = -1 - 9*rng.Float64()
		p.Ub[j] = float64(1 + rng.Intn(3))
		p.Integer[j] = j%4 != 3
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		var sum float64
		for j := range row {
			row[j] = 5 * rng.Float64()
			sum += row[j]
		}
		p.Aub = append(p.Aub, row)
		p.Bub = append(p.Bub, 0.3*sum)
	}
	return p
}

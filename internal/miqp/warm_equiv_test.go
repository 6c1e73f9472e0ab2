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

package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/edgesim"
	"repro/internal/models"
	"repro/internal/trace"
)

// seedTol is the acceptance band for seeded-vs-cold objective comparison. The
// branch & bound certifies optimality only to its relative gap tolerance,
// 0.005·(1 + initial incumbent objective) — and the initial incumbent is the
// greedy point, whose objective is bounded by the all-drop objective
// (dropPen·Σ workload, the point greedy starts from). Two certified solves of
// the same instance can therefore differ by up to the sum of their bands;
// allDrop over-approximates both initial incumbents.
func seedTol(a, b, allDrop float64) float64 {
	return 0.005 * (2 + math.Abs(a) + math.Abs(b) + 2*allDrop)
}

// TestSolveEdgeSeedVsColdEquivalence is the reuse layer's core correctness
// property, checked over 125 random slot transitions: seeding a solve with
// the previous slot's (repaired) assignment must not change the certified
// objective beyond the solver's gap tolerance. The cold chain's outputs
// define the next slot's seed and resident set for BOTH chains, so the two
// solves of each slot see identical problems and differ only in the seed.
func TestSolveEdgeSeedVsColdEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	modes := []BatchMode{ModeMerged, ModeSerial, ModeFixed}
	seeded, repaired := 0, 0
	for seq := 0; seq < 25; seq++ {
		mode := modes[seq%len(modes)]
		var prevAsg *EdgeAssignment
		prevDep := map[[2]int]bool{}
		// Base workload drifts slowly across the chain (the temporal-locality
		// regime the reuse layer targets); the slot is tight enough that the
		// exact optimum differs from the greedy incumbent, so the previous
		// optimum genuinely has something to contribute.
		base := []int{4 + rng.Intn(10), 4 + rng.Intn(10)}
		for slot := 0; slot < 5; slot++ {
			w := []int{base[0] + rng.Intn(5) - 2, base[1] + rng.Intn(5) - 2}
			for i := range w {
				if w[i] < 0 {
					w[i] = 0
				}
			}
			jitter := 0.02 * rng.Float64()
			// A small explicit drop penalty keeps the solver's adaptive gap
			// band (which scales with the greedy incumbent's objective, itself
			// bounded by the all-drop objective) tight enough for the
			// comparison below to have teeth.
			const dropPen = 1.0
			mk := func() *EdgeProblem {
				p := edgeProblem(w, mode)
				p.Params = func(i, j int) bandit.TIRParams {
					return bandit.TIRParams{
						Eta:  0.1 + 0.05*float64((i+j)%4) + jitter,
						Beta: 6 + float64((3*i+2*j)%10),
						C:    1.2 + 0.2*float64(j),
					}
				}
				p.SlotMS = 1200
				p.DropPenalty = dropPen
				// Tight instances can exhaust the default 4000-node budget,
				// and a node-limited solve certifies no gap — give the search
				// room so the equivalence band below is actually guaranteed.
				p.SolveNodes = 200000
				p.PrevDeployed = prevDep
				return p
			}
			allDrop := dropPen * float64(w[0]+w[1])
			cold, err := SolveEdge(mk())
			if err != nil {
				t.Fatalf("seq %d slot %d cold: %v", seq, slot, err)
			}
			wp := mk()
			wp.Seed = prevAsg
			warm, err := SolveEdge(wp)
			if err != nil {
				t.Fatalf("seq %d slot %d seeded: %v", seq, slot, err)
			}
			if d := math.Abs(cold.Obj - warm.Obj); d > seedTol(cold.Obj, warm.Obj, allDrop) {
				t.Fatalf("seq %d slot %d (mode %v): seeded obj %v vs cold %v (Δ=%v > tol %v)",
					seq, slot, mode, warm.Obj, cold.Obj, d, seedTol(cold.Obj, warm.Obj, allDrop))
			}
			seeded += warm.Solver.IncumbentSeeded
			repaired += warm.Solver.IncumbentRepaired
			prevAsg = cold
			nd := map[[2]int]bool{}
			for _, dep := range cold.Deployments {
				nd[[2]int{dep.App, dep.Version}] = true
			}
			prevDep = nd
		}
	}
	if seeded == 0 {
		t.Fatal("no solve ever accepted the seed incumbent — the reuse path is dead")
	}
	t.Logf("seeded=%d repaired=%d across 125 transitions", seeded, repaired)
}

// TestDecideWorkerCountInvariantWithAndWithoutReuse pins the determinism
// contract in both reuse settings: plans must be byte-identical across worker
// counts whether the temporal reuse layer is on (default) or off. Reuse state
// updates happen in the sequential edge-order gather, so this holds even
// though seeds flow from slot to slot.
func TestDecideWorkerCountInvariantWithAndWithoutReuse(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	for _, disable := range []bool{false, true} {
		run := func(workers int) []*edgesim.Plan {
			s, err := New(Config{
				Cluster: c, Apps: apps, Workers: workers,
				DisableSlotReuse: disable,
				Provider:         NewOnlineTuner(0.04, 0.07),
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := &planRecorder{Scheduler: s}
			runSim(t, rec, c, apps, 20, 11)
			return rec.plans
		}
		if !reflect.DeepEqual(run(1), run(8)) {
			t.Fatalf("DisableSlotReuse=%v: plans diverged across worker counts", disable)
		}
	}
}

// TestSchedulerReuseCountersFire guards against the reuse layer silently
// dying: over a closed-loop run the per-slot solver stats must show incumbent
// seeds being accepted, and disabling reuse must zero them.
func TestSchedulerReuseCountersFire(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	// The paper's small-scale load (mean 95 requests/slot) pushes edges into
	// the regime where the exact optimum beats greedy, so seeds get accepted;
	// the light default test trace never exercises that.
	tr, err := trace.Generate(trace.Config{
		Apps: len(apps), Edges: c.N(), Slots: 15, Seed: 13,
		MeanPerSlot: 95, Imbalance: 0.8, BurstProb: 0.05, BurstScale: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	count := func(disable bool) int {
		s, err := New(Config{
			Cluster: c, Apps: apps, Workers: 1,
			DisableSlotReuse: disable,
			Provider:         NewOnlineTuner(0.04, 0.07),
		})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := edgesim.New(edgesim.Config{Cluster: c, Apps: apps, NoiseSigma: 0.02, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		rec := &planRecorder{Scheduler: s}
		if _, err := sim.Run(rec, tr.R); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range rec.plans {
			if p.Solver != nil {
				total += p.Solver.IncumbentSeeded
			}
		}
		return total
	}
	if on := count(false); on == 0 {
		t.Fatal("reuse enabled but no incumbent was ever seeded")
	}
	if off := count(true); off != 0 {
		t.Fatalf("reuse disabled but %d incumbents were seeded", off)
	}
}

// FuzzIncumbentRepair mutates the arrival vector between two consecutive
// solves and checks that the repaired seed never breaks the solve: the seeded
// result must conserve requests (served + dropped = workload per app) and
// agree with the cold solve to the solver's gap tolerance.
func FuzzIncumbentRepair(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(2), uint8(9), uint8(0))
	f.Add(uint8(0), uint8(31), uint8(31), uint8(0), uint8(1))
	f.Add(uint8(12), uint8(12), uint8(1), uint8(1), uint8(2))
	modes := []BatchMode{ModeMerged, ModeSerial, ModeFixed}
	f.Fuzz(func(t *testing.T, w0a, w0b, w1a, w1b, sel uint8) {
		mode := modes[int(sel)%len(modes)]
		p1 := edgeProblem([]int{int(w0a % 32), int(w0b % 32)}, mode)
		prev, err := SolveEdge(p1)
		if err != nil {
			t.Fatalf("slot 1: %v", err)
		}
		w2 := []int{int(w1a % 32), int(w1b % 32)}
		cold, err := SolveEdge(edgeProblem(w2, mode))
		if err != nil {
			t.Fatalf("slot 2 cold: %v", err)
		}
		sp := edgeProblem(w2, mode)
		sp.Seed = prev
		warm, err := SolveEdge(sp)
		if err != nil {
			t.Fatalf("slot 2 seeded: %v", err)
		}
		if math.IsNaN(warm.Obj) || math.IsInf(warm.Obj, 0) {
			t.Fatalf("seeded objective is %v", warm.Obj)
		}
		for i := range w2 {
			served := 0
			for _, d := range warm.Deployments {
				if d.App == i {
					served += d.Requests
				}
			}
			if served+warm.Dropped[i] != w2[i] {
				t.Fatalf("app %d: served %d + dropped %d != workload %d",
					i, served, warm.Dropped[i], w2[i])
			}
		}
		allDrop := DefaultDropPenalty * float64(w2[0]+w2[1])
		if d := math.Abs(cold.Obj - warm.Obj); d > seedTol(cold.Obj, warm.Obj, allDrop) {
			t.Fatalf("seeded obj %v vs cold %v (Δ=%v)", warm.Obj, cold.Obj, d)
		}
	})
}

// BenchmarkSlotLoop measures the steady-state closed Decide loop — the path
// the reuse layer and the persistent scratch pools accelerate. Allocations
// per op are the satellite metric: pooled LP arenas keep the loop's solver
// workspace allocations near zero.
func BenchmarkSlotLoop(b *testing.B) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	tr, err := trace.Generate(trace.Config{
		Apps: 1, Edges: c.N(), Slots: 64, Seed: 3,
		MeanPerSlot: 60, Imbalance: 0.8,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Cluster: c, Apps: apps, Workers: 1, Provider: NewOnlineTuner(0.04, 0.07)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := s.Decide(n%64, tr.R[n%64]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMemoHitsOnRepeatedInputs pins down when the plan-memo layer actually
// fires. The fingerprint hashes everything SolveEdge reads — workload, ship
// budget, TIR parameters, γ, resident set — so the memo stays cold unless
// every input repeats exactly. Two scheduler inputs drift by construction in
// the default configuration and keep the memo cold there:
//
//   - The online tuner's LCB padding √(ε²·ln(t+1)/(n+1)) folds the slot
//     counter t (paper Eq. 17), so every arm's shaded parameters move every
//     slot even without observations. That is mandated exploration decay, not
//     a bug; an OfflineProvider serves fixed parameters.
//   - Cluster bandwidth is redrawn per (slot, edge) from [Lo, Hi]; the ship
//     budget only repeats when Lo == Hi.
//
// With both sources pinned (offline provider, fixed bandwidth) a repeated
// arrivals trace must hit the memo both on consecutive identical slots (the
// edge's most recent entry) and when alternating between two recurring
// patterns (an entry behind one intervening fingerprint). A slot served
// wholly from the memo on the same input as the previous slot must return
// that slot's plan unchanged.
func TestMemoHitsOnRepeatedInputs(t *testing.T) {
	c, err := cluster.Custom([]cluster.EdgeSpec{
		{Device: &accel.JetsonNX, BandwidthLoMbps: 75, BandwidthHiMbps: 75},
		{Device: &accel.JetsonNano, BandwidthLoMbps: 75, BandwidthHiMbps: 75},
	})
	if err != nil {
		t.Fatal(err)
	}
	apps := models.Catalogue(1, 3)
	prov, err := ProfileOffline(c, apps, 16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: c, Apps: apps, Workers: 1, Provider: prov})
	if err != nil {
		t.Fatal(err)
	}
	pats := [2][][]int{{{8, 6}}, {{5, 9}}}
	var last [2]*edgesim.Plan // most recent plan per pattern
	var memo, repeatHits, alternateHits, wholeHits int
	prevPat := -1
	for slot := 0; slot < 16; slot++ {
		// Slots 0–7 repeat pattern 0 (identical problem on consecutive slots
		// once the resident set settles). Slots 8–15 alternate patterns 0
		// and 1 (the previous occurrence is two slots back).
		pat := 0
		if slot >= 8 && slot%2 == 1 {
			pat = 1
		}
		plan, err := s.Decide(slot, pats[pat])
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		hits := plan.Solver.MemoHits
		memo += hits
		t.Logf("slot %2d: memo=%d", slot, hits)
		if plan.Solver.DeltaSkippedEdges != 0 {
			t.Fatalf("slot %d: DeltaSkippedEdges = %d, want 0", slot, plan.Solver.DeltaSkippedEdges)
		}
		if pat == prevPat {
			repeatHits += hits
		} else if slot >= 8 {
			alternateHits += hits
		}
		// A slot served wholly from the memo must return the plan of the
		// last slot with the same input.
		if hits == c.N() && last[pat] != nil {
			wholeHits++
			got, want := *plan, *last[pat]
			got.Solver, want.Solver = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("slot %d: memo-served slot changed the plan\ngot:  %+v\nwant: %+v", slot, got, want)
			}
		}
		last[pat], prevPat = plan, pat
	}
	if repeatHits == 0 {
		t.Fatal("repeated identical slots never hit the plan memo")
	}
	if alternateHits == 0 {
		t.Fatal("alternating recurring patterns never hit the plan memo")
	}
	if wholeHits == 0 {
		t.Fatal("no slot was served wholly from the memo; the plan check is vacuous")
	}
	st := s.SolverStats()
	if st.MemoHits != memo || st.DeltaSkippedEdges != 0 {
		t.Fatalf("cumulative stats (memo %d, delta %d) disagree with per-plan sums (memo %d, delta 0)",
			st.MemoHits, st.DeltaSkippedEdges, memo)
	}
}

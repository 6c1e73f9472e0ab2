package core

import (
	"fmt"
	"math"

	"repro/internal/edgesim"
)

// Replan is the online serving layer's windowed re-solve entry point
// (serve.Planner): window[i][k] aggregates the requests attributed to edge
// k for app i since the last re-optimization, collected over windowNS
// virtual nanoseconds. The window is rescaled to the scheduler's slot
// duration — the optimizer prices compute, bandwidth, and memory per slot,
// so feeding it a half-slot window unscaled would halve every demand — and
// then solved as the next slot of an ordinary Decide sequence. That keeps
// the cross-slot reuse layer (incumbent seeding, fingerprint memoization)
// carrying across re-optimizations exactly as it does
// across simulator slots: a serving workload whose window repeats hits the
// same memo and warm-start paths the replay benchmarks measure.
func (s *Scheduler) Replan(window [][]int, windowNS int64) (*edgesim.Plan, error) {
	if len(window) != len(s.cfg.Apps) {
		return nil, fmt.Errorf("core: replan window has %d app rows, want %d", len(window), len(s.cfg.Apps))
	}
	slotNS := int64(s.cfg.Cluster.SlotMS()) * int64(1e6)
	scaled := scaleWindow(window, windowNS, slotNS)
	plan, err := s.Decide(s.serveT, scaled)
	if err != nil {
		return nil, err
	}
	s.serveT++
	return plan, nil
}

// scaleWindow converts a windowNS-long arrival aggregate into a per-slot
// demand estimate: each count is scaled by slotNS/windowNS with
// deterministic round-half-away-from-zero, and any bucket that saw at
// least one arrival keeps at least one request — sporadic apps must not
// round out of the plan entirely or they lose all serving capacity until
// they next spike.
func scaleWindow(window [][]int, windowNS, slotNS int64) [][]int {
	out := make([][]int, len(window))
	if windowNS <= 0 || windowNS == slotNS {
		for i := range window {
			out[i] = append([]int(nil), window[i]...)
		}
		return out
	}
	f := float64(slotNS) / float64(windowNS)
	for i := range window {
		out[i] = make([]int, len(window[i]))
		for k, v := range window[i] {
			if v == 0 {
				continue
			}
			scaled := int(math.Floor(float64(v)*f + 0.5))
			if scaled < 1 {
				scaled = 1
			}
			out[i][k] = scaled
		}
	}
	return out
}

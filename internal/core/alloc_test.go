package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/models"
	"repro/internal/trace"
)

// TestSlotLoopAllocBudget enforces the steady-state allocation budget of the
// closed Decide loop (the BenchmarkSlotLoop path): once the scheduler's
// scratch pools, slot buffers, and the LP arenas are warm, a slot decision
// must stay under an explicit allocs-per-op ceiling. The ceiling (300) sits
// above the measured steady state (~200) to absorb map rehashes and the
// occasional memo-miss resolve, but far below the pre-pooling baseline (938),
// so a leak that reintroduces per-slot churn fails loudly.
func TestSlotLoopAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted by the race detector's shadow allocations")
	}
	const budget = 300
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	tr, err := trace.Generate(trace.Config{
		Apps: 1, Edges: c.N(), Slots: 64, Seed: 3,
		MeanPerSlot: 60, Imbalance: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: c, Apps: apps, Workers: 1, Provider: NewOnlineTuner(0.04, 0.07)})
	if err != nil {
		t.Fatal(err)
	}
	// Warm phase: one full pass over the trace grows every pool to its
	// steady-state size (scratch slabs, slot buffers, memo entries).
	slot := 0
	decide := func() {
		if _, err := s.Decide(slot%64, tr.R[slot%64]); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		slot++
	}
	for i := 0; i < 64; i++ {
		decide()
	}
	if got := testing.AllocsPerRun(64, decide); got > budget {
		t.Fatalf("steady-state slot decision allocates %.1f objects/op, budget %d", got, budget)
	}
}

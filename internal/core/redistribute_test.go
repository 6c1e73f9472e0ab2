package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bandit"
	"repro/internal/cluster"
	"repro/internal/edgesim"
	"repro/internal/lp"
	"repro/internal/miqp"
	"repro/internal/models"
	"repro/internal/trace"
)

func redistArgs() (*cluster.Cluster, []*models.Application, func(ModelKey) bandit.TIRParams, func(ModelKey) float64) {
	c := cluster.Small()
	apps := models.Catalogue(2, 3)
	params := func(ModelKey) bandit.TIRParams { return bandit.TIRParams{Eta: 0.2, Beta: 16, C: 1.6} }
	gamma := func(k ModelKey) float64 {
		m := apps[k.App].Models[k.Version]
		return c.Edges[k.Edge].Device.SingleLatencyMS(m.Profile)
	}
	return c, apps, params, gamma
}

func allocTotals(alloc [][]int) []int {
	out := make([]int, len(alloc))
	for i := range alloc {
		for _, v := range alloc[i] {
			out[i] += v
		}
	}
	return out
}

func TestRedistributePreservesTotals(t *testing.T) {
	c, apps, params, gamma := redistArgs()
	arrivals := [][]int{{12, 0, 3}, {0, 7, 1}}
	red, err := Redistribute(c, apps, arrivals, params, gamma, 0, RedistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := allocTotals(red.Alloc)
	if got[0] != 15 || got[1] != 8 {
		t.Fatalf("allocation totals %v, want [15 8]", got)
	}
	// Transfers must realize the allocation from arrivals exactly.
	net := make([][]int, len(arrivals))
	for i := range arrivals {
		net[i] = append([]int(nil), arrivals[i]...)
	}
	for _, tr := range red.Transfers {
		net[tr.App][tr.From] -= tr.Count
		net[tr.App][tr.To] += tr.Count
		if tr.Count <= 0 {
			t.Fatalf("empty transfer %+v", tr)
		}
	}
	for i := range net {
		for k := range net[i] {
			if net[i][k] != red.Alloc[i][k] {
				t.Fatalf("transfers do not realize allocation at (%d,%d): %d vs %d",
					i, k, net[i][k], red.Alloc[i][k])
			}
		}
	}
}

func TestRedistributeOffloadsHotEdge(t *testing.T) {
	c, apps, params, gamma := redistArgs()
	// Everything lands on edge 0; with three edges and tight slots, stage 1
	// should spread it.
	short := cluster.Small(cluster.WithSlotSeconds(2))
	_ = c
	arrivals := [][]int{{60, 0, 0}, {40, 0, 0}}
	red, err := Redistribute(short, apps, arrivals, params, gamma, 0, RedistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, tr := range red.Transfers {
		if tr.From == 0 {
			moved += tr.Count
		}
	}
	if moved == 0 {
		t.Fatalf("hot edge not offloaded; alloc %v", red.Alloc)
	}
}

func TestRedistributeRespectsBandwidth(t *testing.T) {
	c, apps, params, gamma := redistArgs()
	arrivals := [][]int{{200, 0, 0}, {150, 0, 0}}
	red, err := Redistribute(c, apps, arrivals, params, gamma, 0, RedistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	used := make([]float64, c.N())
	for _, tr := range red.Transfers {
		mb := float64(tr.Count) * apps[tr.App].RequestMB
		used[tr.From] += mb
		used[tr.To] += mb
	}
	for k := range used {
		budget := 0.7 * c.BandwidthMBAt(0, k)
		if used[k] > budget+1e-6 {
			t.Fatalf("edge %d forwarding %v exceeds reserved budget %v", k, used[k], budget)
		}
	}
}

func TestRedistributeZeroArrivals(t *testing.T) {
	c, apps, params, gamma := redistArgs()
	arrivals := [][]int{{0, 0, 0}, {0, 0, 0}}
	red, err := Redistribute(c, apps, arrivals, params, gamma, 0, RedistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Transfers) != 0 {
		t.Fatalf("transfers on empty slot: %v", red.Transfers)
	}
	for _, row := range red.Alloc {
		for _, v := range row {
			if v != 0 {
				t.Fatal("nonzero allocation on empty slot")
			}
		}
	}
}

func TestRedistributeArrivalMismatch(t *testing.T) {
	c, apps, params, gamma := redistArgs()
	if _, err := Redistribute(c, apps, [][]int{{1, 2, 3}}, params, gamma, 0, RedistOptions{}); err == nil {
		t.Fatal("wrong arrivals shape must error")
	}
}

func TestRandomizedRoundingStillConserves(t *testing.T) {
	c, apps, params, gamma := redistArgs()
	arrivals := [][]int{{9, 4, 2}, {3, 3, 3}}
	opt := RedistOptions{RoundRNG: rand.New(rand.NewSource(5))}
	red, err := Redistribute(c, apps, arrivals, params, gamma, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := allocTotals(red.Alloc)
	if got[0] != 15 || got[1] != 9 {
		t.Fatalf("randomized rounding broke totals: %v", got)
	}
}

// Property: rounding preserves per-app totals and non-negativity for any
// fractional serve matrix consistent with arrivals.
func TestQuickRoundAllocConserves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		I := 1 + rng.Intn(3)
		K := 1 + rng.Intn(5)
		arrivals := make([][]int, I)
		serve := make([][]float64, I)
		for i := 0; i < I; i++ {
			arrivals[i] = make([]int, K)
			serve[i] = make([]float64, K)
			total := 0
			for k := 0; k < K; k++ {
				arrivals[i][k] = rng.Intn(10)
				total += arrivals[i][k]
			}
			// Random fractional split of the total.
			if total > 0 {
				w := make([]float64, K)
				var sum float64
				for k := range w {
					w[k] = rng.Float64()
					sum += w[k]
				}
				for k := range w {
					serve[i][k] = float64(total) * w[k] / sum
				}
			}
		}
		var rrng *rand.Rand
		if seed%2 == 0 {
			rrng = rand.New(rand.NewSource(seed))
		}
		alloc := roundAlloc(serve, arrivals, rrng)
		for i := 0; i < I; i++ {
			total, allocd := 0, 0
			for k := 0; k < K; k++ {
				if alloc[i][k] < 0 {
					return false
				}
				total += arrivals[i][k]
				allocd += alloc[i][k]
			}
			if total != allocd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchTransfersExactness(t *testing.T) {
	arrivals := [][]int{{10, 0, 0}}
	alloc := [][]int{{2, 5, 3}}
	trs := matchTransfers(arrivals, alloc)
	moved := map[int]int{}
	for _, tr := range trs {
		if tr.From != 0 {
			t.Fatalf("only edge 0 has surplus: %+v", tr)
		}
		moved[tr.To] += tr.Count
	}
	if moved[1] != 5 || moved[2] != 3 {
		t.Fatalf("moved %v, want 5→1 and 3→2", moved)
	}
}

// stage1Mirror drives a scheduler through a closed-loop run and, after every
// Decide, solves that slot's stage-1 LP twice on the scheduler's own inputs:
// through a carried basis, as the scheduler does, and cold. The two
// redistributions must be identical, and the mirror's warm-path counters must
// equal the ones the scheduler reported for the slot, which shows the mirror
// replays exactly the scheduler's sequence of stage-1 solves.
type stage1Mirror struct {
	*Scheduler
	t      *testing.T
	before func(s *Scheduler, slot int) // optional per-slot input change
	carry  CarriedBasis
	sc     *lp.Scratch
	warm   miqp.Stats // summed stage-1 counters of the mirror's warm path
}

func (m *stage1Mirror) Decide(slot int, arrivals [][]int) (*edgesim.Plan, error) {
	s := m.Scheduler
	if m.before != nil {
		m.before(s, slot)
	}
	plan, err := s.Decide(slot, arrivals)
	if err != nil {
		return nil, err
	}
	opt := s.cfg.Redist
	opt.DownEdges = s.down
	opt.ReservedMB = s.bwReserved
	opt.Scratch, opt.Basis = m.sc, &m.carry
	warm, err := Redistribute(s.cfg.Cluster, s.cfg.Apps, arrivals, s.provider.Params, s.gamma, slot, opt)
	if err != nil {
		return nil, err
	}
	opt.Scratch, opt.Basis = nil, nil
	cold, err := Redistribute(s.cfg.Cluster, s.cfg.Apps, arrivals, s.provider.Params, s.gamma, slot, opt)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(warm.Alloc, cold.Alloc) || !reflect.DeepEqual(warm.Transfers, cold.Transfers) ||
		!reflect.DeepEqual(warm.ForwardMB, cold.ForwardMB) {
		m.t.Errorf("slot %d: warm stage 1 (%+v) differs from cold\nwarm alloc %v transfers %v forward %v\ncold alloc %v transfers %v forward %v",
			slot, warm.Solver, warm.Alloc, warm.Transfers, warm.ForwardMB, cold.Alloc, cold.Transfers, cold.ForwardMB)
	}
	got, want := stage1Counters(plan.Solver), stage1Counters(&warm.Solver)
	if got != want {
		m.t.Errorf("slot %d: scheduler stage-1 counters %v, mirror %v", slot, got, want)
	}
	m.warm.Add(warm.Solver)
	return plan, nil
}

func stage1Counters(st *miqp.Stats) [4]int {
	return [4]int{st.Stage1Solves, st.Stage1WarmAccepted, st.Stage1Rejected, st.Stage1Pivots}
}

// TestRedistributeWarmMatchesCold checks the stage-1 cross-slot warm start
// against a cold solve of the same inputs, slot by slot, over testbed-shaped
// runs (the paper's 6-edge testbed, 5 apps × 5 versions, online tuner, 144
// slots), a serve-shaped run on the 3-edge cluster, and each stage-1 variant
// that changes the LP: the knee cap, the balancing term, summed memory, an
// edge taken down and brought back, and coordinator-reserved bandwidth.
func TestRedistributeWarmMatchesCold(t *testing.T) {
	type tcase struct {
		name   string
		c      *cluster.Cluster
		apps   []*models.Application
		slots  int
		mean   float64
		seed   int64
		cfg    func(*Config)
		before func(s *Scheduler, slot int)
	}
	testbed := func(seed int64) *cluster.Cluster { return cluster.Default(cluster.WithSeed(seed)) }
	cases := []tcase{
		{name: "testbed/seed1", c: testbed(1), apps: models.Catalogue(5, 5), slots: 144, mean: 31, seed: 1},
		{name: "testbed/seed2", c: testbed(2), apps: models.Catalogue(5, 5), slots: 144, mean: 31, seed: 2},
		{name: "testbed/seed3", c: testbed(3), apps: models.Catalogue(5, 5), slots: 144, mean: 31, seed: 3},
		{name: "serve", c: cluster.Small(cluster.WithSeed(1)), apps: models.Catalogue(2, 3), slots: 96, mean: 60, seed: 1},
		{name: "kneecap", c: testbed(4), apps: models.Catalogue(5, 5), slots: 48, mean: 31, seed: 4,
			cfg: func(c *Config) { c.KneeCap = true }},
		{name: "balance", c: testbed(5), apps: models.Catalogue(5, 5), slots: 48, mean: 31, seed: 5,
			cfg: func(c *Config) { c.Redist.BalanceWeight = 0.5 }},
		{name: "memsum", c: testbed(6), apps: models.Catalogue(5, 5), slots: 48, mean: 31, seed: 6,
			cfg: func(c *Config) { c.Mem = MemSum }},
		{name: "edge-down", c: testbed(7), apps: models.Catalogue(5, 5), slots: 48, mean: 31, seed: 7,
			before: func(s *Scheduler, slot int) {
				switch slot {
				case 12:
					s.SetEdgeDown(2, true)
				case 30:
					s.SetEdgeDown(2, false)
				}
			}},
		{name: "reserved", c: testbed(8), apps: models.Catalogue(5, 5), slots: 48, mean: 31, seed: 8,
			before: func(s *Scheduler, slot int) {
				if s.bwReserved == nil {
					s.bwReserved = make([]float64, s.cfg.Cluster.N())
				}
				for k := range s.bwReserved {
					s.bwReserved[k] = 0.15 * float64((slot+k)%3) * s.cfg.Cluster.BandwidthMBAt(slot, k)
				}
			}},
	}
	if testing.Short() {
		cases = append(cases[:1], cases[3:]...)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Cluster: tc.c, Apps: tc.apps, Workers: 1, Provider: NewOnlineTuner(0.04, 0.07)}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := &stage1Mirror{Scheduler: s, t: t, before: tc.before, sc: lp.NewScratch()}
			sim, err := edgesim.New(edgesim.Config{
				Cluster: tc.c, Apps: tc.apps, NoiseSigma: 0.02, SlotNoiseSigma: 0.05, Seed: tc.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Generate(trace.Config{
				Apps: len(tc.apps), Edges: tc.c.N(), Slots: tc.slots, Seed: tc.seed,
				MeanPerSlot: tc.mean, Imbalance: 0.8, BurstProb: 0.05, BurstScale: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(m, tr.R); err != nil {
				t.Fatal(err)
			}
			if m.warm.Stage1Solves != tc.slots || m.warm.Stage1WarmAccepted+m.warm.Stage1Rejected == 0 {
				t.Fatalf("stage-1 counters %v over %d slots: no warm re-entry was made", stage1Counters(&m.warm), tc.slots)
			}
			t.Logf("solves %d, warm accepted %d, rejected %d, %.1f pivots/solve",
				m.warm.Stage1Solves, m.warm.Stage1WarmAccepted, m.warm.Stage1Rejected, m.warm.Stage1PivotsPerSolve())
		})
	}
}

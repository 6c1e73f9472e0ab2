package main

import (
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/cluster"
	"repro/internal/edgesim"
	"repro/internal/models"
)

// validSlot is a hand-built plan on the small cluster that meets every
// constraint: 10 and 4 requests arrive at edges 0 and 1; edge 0 forwards 3
// to edge 2 and every request is served by the smallest model.
func validSlot() ([][]int, *edgesim.Plan) {
	arrivals := [][]int{{10, 4, 0}}
	plan := &edgesim.Plan{
		Transfers: []edgesim.Transfer{{App: 0, From: 0, To: 2, Count: 3}},
		Deployments: []edgesim.Deployment{
			{App: 0, Version: 0, Edge: 0, Requests: 7, BatchSizes: []int{4, 3}},
			{App: 0, Version: 0, Edge: 1, Requests: 4, BatchSizes: []int{4}},
			{App: 0, Version: 0, Edge: 2, Requests: 3, BatchSizes: []int{3}},
		},
		Dropped: [][]int{{0, 0, 0}},
	}
	return arrivals, plan
}

func checkOne(t *testing.T, c *cluster.Cluster, arrivals [][]int, plan *edgesim.Plan) []string {
	t.Helper()
	pc := newPlanChecker(c, models.Catalogue(1, 3))
	pc.check(0, arrivals, plan)
	msgs, n := pc.violations()
	if n != len(msgs) {
		t.Fatalf("counted %d violations, kept %d", n, len(msgs))
	}
	return msgs
}

func TestPlanCheckerAcceptsValidPlan(t *testing.T) {
	arrivals, plan := validSlot()
	if msgs := checkOne(t, cluster.Small(), arrivals, plan); len(msgs) != 0 {
		t.Fatalf("valid plan rejected: %v", msgs)
	}
}

// tinyCluster has three edges whose memory or bandwidth is set by the
// caller, to push one constraint past its limit.
func tinyCluster(t *testing.T, memMB, mbps float64) *cluster.Cluster {
	t.Helper()
	spec := cluster.EdgeSpec{Device: &accel.JetsonNano, MemoryMB: memMB, BandwidthLoMbps: mbps, BandwidthHiMbps: mbps}
	c, err := cluster.Custom([]cluster.EdgeSpec{spec, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlanCheckerCatchesEachViolation(t *testing.T) {
	cases := []struct {
		name    string
		cluster func(*testing.T) *cluster.Cluster
		doctor  func(arrivals [][]int, p *edgesim.Plan)
		want    string
	}{
		{"eq3 conservation", nil, func(_ [][]int, p *edgesim.Plan) {
			p.Deployments[0].Requests = 6
			p.Deployments[0].BatchSizes = []int{6}
		}, "eq3: app 0 edge 0 serves 6"},
		{"eq3 over-forwarding", nil, func(_ [][]int, p *edgesim.Plan) {
			p.Transfers = append(p.Transfers, edgesim.Transfer{App: 0, From: 1, To: 0, Count: 5})
		}, "eq3: app 0 edge 1 forwards 5 of 4"},
		{"eq3 missing drops", nil, func(a [][]int, _ *edgesim.Plan) {
			a[0][1] = 6
		}, "eq3: app 0 edge 1 serves 4 + drops 0"},
		{"eq4 batches short", nil, func(_ [][]int, p *edgesim.Plan) {
			p.Deployments[0].BatchSizes = []int{4, 2}
		}, "eq4: deployment app=0 v=0 edge=0 batches cover 6 of 7"},
		{"eq4 empty deployment", nil, func(_ [][]int, p *edgesim.Plan) {
			p.Deployments = append(p.Deployments, edgesim.Deployment{App: 0, Version: 1, Edge: 1})
		}, "eq4: deployment app=0 v=1 edge=1 serves 0"},
		{"eq4 oversized batch", nil, func(a [][]int, p *edgesim.Plan) {
			a[0][1] = 40
			p.Deployments[1].Requests = 40
			p.Deployments[1].BatchSizes = []int{40}
		}, "eq4: deployment app=0 v=0 edge=1 has batch 40"},
		{"eq6 memory", func(t *testing.T) *cluster.Cluster { return tinyCluster(t, 100, 100) }, nil,
			"eq6: edge 0 needs"},
		{"eq9 bandwidth", func(t *testing.T) *cluster.Cluster { return tinyCluster(t, 8000, 1) }, nil,
			"eq9: edge 0 moves"},
		{"range", nil, func(_ [][]int, p *edgesim.Plan) {
			p.Deployments = append(p.Deployments, edgesim.Deployment{App: 0, Version: 7, Edge: 0, Requests: 1, BatchSizes: []int{1}})
		}, "range: deployment app=0 v=7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.Small()
			if tc.cluster != nil {
				c = tc.cluster(t)
			}
			arrivals, plan := validSlot()
			if tc.doctor != nil {
				tc.doctor(arrivals, plan)
			}
			msgs := checkOne(t, c, arrivals, plan)
			for _, m := range msgs {
				if strings.Contains(m, tc.want) {
					return
				}
			}
			t.Fatalf("no violation containing %q; got %v", tc.want, msgs)
		})
	}
}

// A model shipped last slot is resident: deploying it again costs no
// bandwidth, while a newly shipped one is charged.
func TestPlanCheckerChargesOnlyNewlyShippedWeights(t *testing.T) {
	apps := models.Catalogue(1, 3)
	// The budget fits version 1's compressed weights once, not twice, and
	// not version 2's.
	mbps := (apps[0].Models[1].CompressedMB + 1) * 8 / 10
	c := tinyCluster(t, 8000, mbps)
	arrivals, plan := validSlot()
	plan.Transfers = nil
	plan.Deployments[0].Requests = 10
	plan.Deployments[0].BatchSizes = []int{10}
	plan.Deployments[2].Requests = 0
	plan.Deployments = plan.Deployments[:2]
	preload := edgesim.Preload{App: 0, Version: 1, Edge: 0}
	pc := newPlanChecker(c, apps)
	pc.check(0, arrivals, plan)
	if _, n := pc.violations(); n != 0 {
		t.Fatalf("slot 0: %v", pc.errs)
	}
	plan.Preloads = []edgesim.Preload{preload}
	plan.Preloads = append(plan.Preloads, preload, preload) // duplicates ship once
	pc.check(1, arrivals, plan)
	if _, n := pc.violations(); n != 0 {
		t.Fatalf("slot 1 (resident v0, one new preload): %v", pc.errs)
	}
	plan.Preloads = []edgesim.Preload{{App: 0, Version: 2, Edge: 0}, {App: 0, Version: 0, Edge: 2}}
	pc.check(2, arrivals, plan)
	if _, n := pc.violations(); n != 1 || !strings.Contains(pc.errs[0], "eq9: edge 0") {
		t.Fatalf("slot 2: want one eq9 violation at edge 0, got %v", pc.errs)
	}
}

func TestArrivalTotalAndLossChecks(t *testing.T) {
	if err := checkArrivalTotal(100, 97, 3); err != nil {
		t.Fatal(err)
	}
	if err := checkArrivalTotal(100, 97, 2); err == nil {
		t.Fatal("lost request not caught")
	}
	apps := models.Catalogue(5, 5)
	lo, hi := lossRange(apps)
	if !(lo < hi) {
		t.Fatalf("loss range [%v, %v]", lo, hi)
	}
	for _, ok := range []float64{lo, (lo + hi) / 2, hi} {
		if err := checkMeanLoss(ok, apps); err != nil {
			t.Errorf("%v: %v", ok, err)
		}
	}
	for _, bad := range []float64{0, lo - 0.01, hi + 0.01, 2 * hi} {
		if err := checkMeanLoss(bad, apps); err == nil {
			t.Errorf("mean loss %v not caught", bad)
		}
	}
}

func TestPlanHashSeesEveryField(t *testing.T) {
	hash := func(doctor func(*edgesim.Plan)) uint64 {
		_, p := validSlot()
		p.Preloads = []edgesim.Preload{{App: 0, Version: 2, Edge: 1}}
		if doctor != nil {
			doctor(p)
		}
		h := newPlanHasher()
		h.add(p)
		return h.h
	}
	base := hash(nil)
	doctors := map[string]func(*edgesim.Plan){
		"batch":    func(p *edgesim.Plan) { p.Deployments[0].BatchSizes = []int{3, 4} },
		"version":  func(p *edgesim.Plan) { p.Deployments[1].Version = 1 },
		"transfer": func(p *edgesim.Plan) { p.Transfers[0].Count = 2 },
		"dropped":  func(p *edgesim.Plan) { p.Dropped[0][2] = 1 },
		"preload":  func(p *edgesim.Plan) { p.Preloads[0].Edge = 2 },
		"order": func(p *edgesim.Plan) {
			p.Deployments[0], p.Deployments[1] = p.Deployments[1], p.Deployments[0]
		},
	}
	for name, d := range doctors {
		if hash(d) == base {
			t.Errorf("%s change leaves the plan hash unchanged", name)
		}
	}
}

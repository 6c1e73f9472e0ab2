package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/models"
)

// planChecker re-derives the paper's per-slot constraints for every plan of a
// closed-loop run from the public data in package cluster and package models.
// It shares no code with the simulator's own validation, so a fault that
// changes both the plans and that validation together still shows here.
//
//	Eq. 3/5  served + dropped = arrivals − forwarded out + forwarded in, and
//	         an edge forwards no more than arrived there
//	Eq. 4    every deployment serves at least one request, its physical
//	         batches are each in [1, core.DefaultMaxBatch] and cover its
//	         requests
//	Eq. 6    resident weights + the largest batch's activations fit memory
//	Eq. 9    forwarded request bytes (both directions) + weights shipped to
//	         an edge where the model was not resident last slot fit the
//	         slot's bandwidth budget
type planChecker struct {
	c    *cluster.Cluster
	apps []*models.Application
	// modelOff[i] is the flat index of app i's version 0.
	modelOff []int
	nModels  int
	// resident[k][m] marks model m on disk at edge k from the previous slot;
	// next is this slot's residency, swapped in after the check.
	resident, next [][]bool
	in, out, serve [][]int
	weights, act   []float64
	sent           []float64 // Eq. 9 megabytes moved per edge this slot
	seen           []bool
	errs           []string
	nErrs          int
}

// maxKeptViolations bounds the violation messages kept; all are counted.
const maxKeptViolations = 20

func newPlanChecker(c *cluster.Cluster, apps []*models.Application) *planChecker {
	pc := &planChecker{c: c, apps: apps}
	for _, a := range apps {
		pc.modelOff = append(pc.modelOff, pc.nModels)
		pc.nModels += len(a.Models)
	}
	K := c.N()
	grid := func(rows, cols int) [][]int {
		g := make([][]int, rows)
		for i := range g {
			g[i] = make([]int, cols)
		}
		return g
	}
	pc.in, pc.out, pc.serve = grid(len(apps), K), grid(len(apps), K), grid(len(apps), K)
	pc.resident = make([][]bool, K)
	pc.next = make([][]bool, K)
	for k := 0; k < K; k++ {
		pc.resident[k] = make([]bool, pc.nModels)
		pc.next[k] = make([]bool, pc.nModels)
	}
	pc.weights = make([]float64, K)
	pc.act = make([]float64, K)
	pc.sent = make([]float64, K)
	pc.seen = make([]bool, K*pc.nModels)
	return pc
}

func (pc *planChecker) fail(t int, format string, args ...any) {
	pc.nErrs++
	if len(pc.errs) < maxKeptViolations {
		pc.errs = append(pc.errs, fmt.Sprintf("slot %d: ", t)+fmt.Sprintf(format, args...))
	}
}

func (pc *planChecker) model(app, version int) (*models.Model, int, bool) {
	if app < 0 || app >= len(pc.apps) || version < 0 || version >= len(pc.apps[app].Models) {
		return nil, 0, false
	}
	return pc.apps[app].Models[version], pc.modelOff[app] + version, true
}

// check validates one slot's plan against arrivals[i][k] and advances the
// residency the next slot's Eq. 9 check reads.
func (pc *planChecker) check(t int, arrivals [][]int, plan *edgesim.Plan) {
	I, K := len(pc.apps), pc.c.N()
	for i := 0; i < I; i++ {
		for k := 0; k < K; k++ {
			pc.in[i][k], pc.out[i][k], pc.serve[i][k] = 0, 0, 0
		}
	}
	for k := 0; k < K; k++ {
		pc.weights[k], pc.act[k] = 0, 0
		clear(pc.next[k])
	}
	clear(pc.seen)
	sent := pc.sent
	clear(sent)

	// Transfers: Eq. 3 flows, and their Eq. 9 bytes at both endpoints.
	for _, tr := range plan.Transfers {
		if tr.App < 0 || tr.App >= I || tr.From < 0 || tr.From >= K || tr.To < 0 || tr.To >= K || tr.Count < 0 {
			pc.fail(t, "range: transfer %+v", tr)
			continue
		}
		if tr.From == tr.To || tr.Count == 0 {
			continue
		}
		pc.out[tr.App][tr.From] += tr.Count
		pc.in[tr.App][tr.To] += tr.Count
		mb := float64(tr.Count) * pc.apps[tr.App].RequestMB
		sent[tr.From] += mb
		sent[tr.To] += mb
	}
	for _, d := range plan.Deployments {
		m, mi, ok := pc.model(d.App, d.Version)
		if !ok || d.Edge < 0 || d.Edge >= K {
			pc.fail(t, "range: deployment app=%d v=%d edge=%d", d.App, d.Version, d.Edge)
			continue
		}
		if d.Requests < 1 {
			pc.fail(t, "eq4: deployment app=%d v=%d edge=%d serves %d requests", d.App, d.Version, d.Edge, d.Requests)
		}
		covered := 0
		for _, b := range d.BatchSizes {
			if b < 1 || b > core.DefaultMaxBatch {
				pc.fail(t, "eq4: deployment app=%d v=%d edge=%d has batch %d outside [1, %d]",
					d.App, d.Version, d.Edge, b, core.DefaultMaxBatch)
			}
			covered += b
			if a := m.IntermediateMB * float64(b); a > pc.act[d.Edge] {
				pc.act[d.Edge] = a
			}
		}
		if covered < d.Requests {
			pc.fail(t, "eq4: deployment app=%d v=%d edge=%d batches cover %d of %d requests",
				d.App, d.Version, d.Edge, covered, d.Requests)
		}
		if d.Requests > 0 {
			pc.serve[d.App][d.Edge] += d.Requests
		}
		if !pc.seen[d.Edge*pc.nModels+mi] {
			pc.seen[d.Edge*pc.nModels+mi] = true
			pc.weights[d.Edge] += m.WeightsMB
			if !pc.resident[d.Edge][mi] {
				sent[d.Edge] += m.CompressedMB
			}
		}
		pc.next[d.Edge][mi] = true
	}
	for _, p := range plan.Preloads {
		m, mi, ok := pc.model(p.App, p.Version)
		if !ok || p.Edge < 0 || p.Edge >= K {
			pc.fail(t, "range: preload %+v", p)
			continue
		}
		if !pc.seen[p.Edge*pc.nModels+mi] {
			pc.seen[p.Edge*pc.nModels+mi] = true
			if !pc.resident[p.Edge][mi] {
				sent[p.Edge] += m.CompressedMB
			}
		}
		pc.next[p.Edge][mi] = true
	}

	// Eq. 3/5 conservation per (app, edge).
	if len(plan.Dropped) != 0 && len(plan.Dropped) != I {
		pc.fail(t, "range: Dropped has %d app rows, want %d", len(plan.Dropped), I)
	}
	for i := 0; i < I; i++ {
		for k := 0; k < K; k++ {
			dropped := 0
			if i < len(plan.Dropped) && k < len(plan.Dropped[i]) {
				dropped = plan.Dropped[i][k]
			}
			if dropped < 0 {
				pc.fail(t, "range: negative drop count %d at app %d edge %d", dropped, i, k)
			}
			if pc.out[i][k] > arrivals[i][k] {
				pc.fail(t, "eq3: app %d edge %d forwards %d of %d arrivals", i, k, pc.out[i][k], arrivals[i][k])
			}
			if want := arrivals[i][k] - pc.out[i][k] + pc.in[i][k]; pc.serve[i][k]+dropped != want {
				pc.fail(t, "eq3: app %d edge %d serves %d + drops %d, want arrivals %d - out %d + in %d",
					i, k, pc.serve[i][k], dropped, arrivals[i][k], pc.out[i][k], pc.in[i][k])
			}
		}
	}
	// Eq. 6 memory and Eq. 9 bandwidth per edge.
	for k := 0; k < K; k++ {
		e := pc.c.Edges[k]
		if need := pc.weights[k] + pc.act[k]; need > e.MemoryMB+1e-6 {
			pc.fail(t, "eq6: edge %d needs %.3f MB (weights %.3f + batch %.3f) of %.3f MB",
				k, need, pc.weights[k], pc.act[k], e.MemoryMB)
		}
		if budget := pc.c.BandwidthMBAt(t, k); sent[k] > budget+1e-6 {
			pc.fail(t, "eq9: edge %d moves %.3f MB of a %.3f MB budget", k, sent[k], budget)
		}
	}
	pc.resident, pc.next = pc.next, pc.resident
}

// violations returns the kept violation messages and the total count.
func (pc *planChecker) violations() ([]string, int) { return pc.errs, pc.nErrs }

// checkArrivalTotal compares the requests a run accounted for (served plus
// dropped, as the simulator reports them) with the arrivals summed from the
// trace itself.
func checkArrivalTotal(traceArrivals, served, dropped int64) error {
	if served+dropped != traceArrivals {
		return fmt.Errorf("conservation: served %d + dropped %d = %d, trace holds %d arrivals",
			served, dropped, served+dropped, traceArrivals)
	}
	return nil
}

// lossRange returns the smallest and largest model loss of the catalogue.
func lossRange(apps []*models.Application) (lo, hi float64) {
	first := true
	for _, a := range apps {
		for _, m := range a.Models {
			if first || m.Loss < lo {
				lo = m.Loss
			}
			if first || m.Loss > hi {
				hi = m.Loss
			}
			first = false
		}
	}
	return lo, hi
}

// checkMeanLoss requires the loss per request to lie within the catalogue's
// model losses: every request is served by some model or dropped at the
// worst loss, so any other value is an accounting fault.
func checkMeanLoss(mean float64, apps []*models.Application) error {
	lo, hi := lossRange(apps)
	if !(mean >= lo-1e-9 && mean <= hi+1e-9) {
		return fmt.Errorf("loss: mean loss %.6f per request outside the catalogue's [%.6f, %.6f]", mean, lo, hi)
	}
	return nil
}

// planHasher folds a plan sequence into one 64-bit FNV-1a style hash over
// every integer field, in plan order.
type planHasher struct{ h uint64 }

func newPlanHasher() planHasher { return planHasher{h: 14695981039346656037} }

func (p *planHasher) mix(v int) {
	p.h ^= uint64(int64(v))
	p.h *= 1099511628211
}

func (p *planHasher) add(plan *edgesim.Plan) {
	p.mix(len(plan.Deployments))
	for _, d := range plan.Deployments {
		p.mix(d.App)
		p.mix(d.Version)
		p.mix(d.Edge)
		p.mix(d.Requests)
		p.mix(len(d.BatchSizes))
		for _, b := range d.BatchSizes {
			p.mix(b)
		}
	}
	p.mix(len(plan.Transfers))
	for _, tr := range plan.Transfers {
		p.mix(tr.App)
		p.mix(tr.From)
		p.mix(tr.To)
		p.mix(tr.Count)
	}
	p.mix(len(plan.Dropped))
	for _, row := range plan.Dropped {
		for _, v := range row {
			p.mix(v)
		}
	}
	p.mix(len(plan.Preloads))
	for _, pl := range plan.Preloads {
		p.mix(pl.App)
		p.mix(pl.Version)
		p.mix(pl.Edge)
	}
}

package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/miqp"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The serve workload: a serve.Loop on the small cluster (3 edges, 2 apps × 3
// versions), token-bucket admission that sheds part of the load,
// least-loaded routing and the decision log on. One caller submits a
// request stream on virtual time whose arrivals follow the trace shape.
// Each re-optimization window holds thousands of requests, so the
// per-request path takes most of the time and replans are a minority; the
// admitted load per slot stays near the cluster's capacity, so each replan
// solves a realistic slot.
const (
	serveApps, serveVersions = 2, 3
	serveMeanPerSlot         = 60 // requests per (app, region) per 10 s slot
	serveTraceSlots          = 96 * 8
	serveReoptSlots          = 16 // re-optimize every 16 slots of virtual time
	serveTokenCap            = 64
	serveTokenRate           = 28 // tokens per virtual second; arrivals average 36/s
	serveWorkers             = 1  // the planner's solve workers in the timed rounds
	serveGroups              = 8  // input groups a run cycles through; replan time varies with the trace
)

// serveRound is one round's program: a scheduler, a serving loop, and the
// stream it is fed.
type serveRound struct {
	c       *cluster.Cluster
	apps    []*models.Application
	planner *plannerProbe
	loop    *serve.Loop
	log     *logSink
	stream  *requestStream
	staleNS int64
}

// buildServeRound assembles a round at the given solve parallelism. When tr
// is non-nil the admission policy, router and planner are wrapped to time
// each call.
func buildServeRound(seed int64, workers int, tr *tracer, agg *windowAgg) (*serveRound, error) {
	r := &serveRound{c: cluster.Small(cluster.WithSeed(seed)), apps: models.Catalogue(serveApps, serveVersions)}
	tcfg := trace.Config{
		Apps: serveApps, Edges: r.c.N(), Slots: serveTraceSlots, Seed: seed,
		MeanPerSlot: serveMeanPerSlot, Imbalance: 0.8, BurstProb: 0.05, BurstScale: 2,
	}
	tr0, err := trace.Generate(tcfg)
	if err != nil {
		return nil, err
	}
	slotNS := int64(r.c.SlotMS()) * int64(time.Millisecond)
	r.stream = newRequestStream(tr0, slotNS)
	sched, err := core.New(core.Config{
		Cluster: r.c, Apps: r.apps, Provider: core.NewOnlineTuner(0.04, 0.07), Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	r.planner = &plannerProbe{inner: sched, slotNS: slotNS, tr: tr, agg: agg}
	if tr != nil {
		if r.planner.replay, err = newReplayer(r.c, r.apps, sched.Provider(), 0, tr); err != nil {
			return nil, err
		}
	}
	adm, err := serve.NewTokenBucket(serveTokenCap, serveTokenRate)
	if err != nil {
		return nil, err
	}
	reopt := serveReoptSlots * slotNS
	r.staleNS = 2 * reopt
	r.log = &logSink{crc: castagnoliTable, agg: agg}
	cfg := serve.Config{
		Apps: serveApps, Edges: r.c.N(), Planner: r.planner,
		Admission: adm, Router: serve.LeastLoaded{},
		ReoptEveryNS: reopt, MaxStaleNS: r.staleNS, Log: r.log,
	}
	if tr != nil {
		cfg.Admission = &admissionProbe{inner: adm, agg: agg}
		cfg.Router = &routerProbe{inner: serve.LeastLoaded{}, agg: agg}
		r.log.timed = true
	}
	if r.loop, err = serve.NewLoop(cfg); err != nil {
		return nil, err
	}
	r.planner.timing = true // the bootstrap plan above belongs to set-up
	return r, nil
}

// requestStream yields the request schedule one request at a time: trace
// slot t's arrivals spread evenly over [t·slot, (t+1)·slot) of virtual time,
// the (app, region) cells interleaved round-robin. The trace is cycled, with
// virtual time running on, if a round asks for more requests than it holds.
type requestStream struct {
	tr     *trace.Trace
	slotNS int64
	t      int   // absolute slot
	order  []int // cell index (app·edges + region) per request of slot t
	left   []int
	pos    int
	id     int64
}

func newRequestStream(tr *trace.Trace, slotNS int64) *requestStream {
	s := &requestStream{tr: tr, slotNS: slotNS, t: -1, left: make([]int, tr.Apps*tr.Edges)}
	most := 0
	for t := 0; t < tr.Slots; t++ {
		if n := tr.TotalAt(t); n > most {
			most = n
		}
	}
	s.order = make([]int, 0, most)
	return s
}

func (s *requestStream) next() serve.Request {
	for s.pos >= len(s.order) {
		s.t++
		slot := s.tr.R[s.t%s.tr.Slots]
		for i := range slot {
			for k, v := range slot[i] {
				s.left[i*s.tr.Edges+k] = v
			}
		}
		s.order, s.pos = s.order[:0], 0
		for more := true; more; {
			more = false
			for c, v := range s.left {
				if v > 0 {
					s.order = append(s.order, c)
					s.left[c]--
					more = true
				}
			}
		}
	}
	c := s.order[s.pos]
	at := int64(s.t)*s.slotNS + int64(s.pos)*s.slotNS/int64(len(s.order))
	s.pos++
	s.id++
	return serve.Request{ID: s.id - 1, App: c / s.tr.Edges, Region: c % s.tr.Edges, ArriveNS: at}
}

// windowAgg sums the per-request layer costs of the traced run over one
// re-optimization window; the planner probe closes a window at each replan.
type windowAgg struct {
	// The open window.
	requests, admitNS, routeNS, logNS, logBytes int64
	// Run totals over closed windows: calls and their summed time per layer,
	// and the allocation outside replans with the requests it covers.
	admits, admitTotalNS  int64
	routes, routeTotalNS  int64
	logWrites, logTotalNS int64
	allocBytes, allocN    int64
	lastTotalAlloc        uint64
	windowStart           time.Time
	mem                   runtime.MemStats
}

// startRound forgets the previous round's open window, so a window never
// spans two programs and the first window's allocation baseline is read at
// the round's first replan.
func (a *windowAgg) startRound() {
	a.requests, a.admitNS, a.routeNS, a.logNS, a.logBytes = 0, 0, 0, 0, 0
	a.lastTotalAlloc = 0
	a.windowStart = time.Now()
}

// plannerProbe is the serve.Planner the loop calls: it forwards to
// core.Scheduler.Replan and times each call after the bootstrap plan.
type plannerProbe struct {
	inner   *core.Scheduler
	slotNS  int64
	timing  bool
	replans int // Replan calls so far, bootstrap included
	durNS   []int64
	solver  miqp.Stats

	tr     *tracer
	agg    *windowAgg
	replay *replayer
	err    error
}

func (p *plannerProbe) Replan(window [][]int, windowNS int64) (*edgesim.Plan, error) {
	t := p.replans
	p.replans++
	traced := p.tr != nil && p.timing
	var win int32 = -1
	if traced {
		a := p.agg
		runtime.ReadMemStats(&a.mem)
		if a.lastTotalAlloc > 0 {
			a.allocBytes += int64(a.mem.TotalAlloc - a.lastTotalAlloc)
			a.allocN += a.requests
		}
		win = p.tr.begin("serve.window", -1, int64(t), a.windowStart)
		p.tr.count(win, "requests", a.requests)
		p.tr.count(win, "admit_ns", a.admitNS)
		p.tr.count(win, "route_ns", a.routeNS)
		p.tr.count(win, "log_ns", a.logNS)
		p.tr.count(win, "log_bytes", a.logBytes)
		a.admitTotalNS += a.admitNS
		a.routeTotalNS += a.routeNS
		a.logTotalNS += a.logNS
		a.requests, a.admitNS, a.routeNS, a.logNS, a.logBytes = 0, 0, 0, 0, 0
	}
	before := p.agg.mem.TotalAlloc
	start := time.Now()
	plan, err := p.inner.Replan(window, windowNS)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if !p.timing {
		return plan, nil
	}
	p.durNS = append(p.durNS, int64(end.Sub(start)))
	if plan.Solver != nil {
		p.solver.Add(*plan.Solver)
	}
	if traced {
		a := p.agg
		runtime.ReadMemStats(&a.mem)
		id := p.tr.record("core.replan", win, int64(t), start, end)
		p.tr.count(id, "alloc_bytes", int64(a.mem.TotalAlloc-before))
		if st := plan.Solver; st != nil {
			p.tr.count(id, "nodes", int64(st.Nodes))
			p.tr.count(id, "relaxations", int64(st.Relaxations))
			p.tr.count(id, "pivots", int64(st.Pivots))
			p.tr.count(id, "refactorizations", int64(st.Refactorizations))
		}
		if err := p.replay.replay(t, scaleToSlot(window, windowNS, p.slotNS), plan, win, int64(t)); err != nil && p.err == nil {
			p.err = err
		}
		runtime.ReadMemStats(&a.mem)
		a.lastTotalAlloc = a.mem.TotalAlloc
		a.windowStart = time.Now()
		p.tr.finish(win, a.windowStart)
	}
	return plan, nil
}

// scaleToSlot rescales a window's counts to one slot the way core's Replan
// does, so the replay sees the inputs the scheduler's Decide saw.
func scaleToSlot(window [][]int, windowNS, slotNS int64) [][]int {
	out := make([][]int, len(window))
	for i := range window {
		out[i] = append([]int(nil), window[i]...)
		if windowNS <= 0 || windowNS == slotNS {
			continue
		}
		f := float64(slotNS) / float64(windowNS)
		for k, v := range window[i] {
			if v == 0 {
				continue
			}
			out[i][k] = max(int(math.Floor(float64(v)*f+0.5)), 1)
		}
	}
	return out
}

// admissionProbe and routerProbe time each call of the wrapped policy.
type admissionProbe struct {
	inner serve.AdmissionPolicy
	agg   *windowAgg
}

func (a *admissionProbe) Name() string { return a.inner.Name() }

func (a *admissionProbe) Admit(nowNS int64, req serve.Request) (bool, string) {
	start := time.Now()
	ok, reason := a.inner.Admit(nowNS, req)
	a.agg.admitNS += int64(time.Since(start))
	a.agg.admits++
	return ok, reason
}

type routerProbe struct {
	inner serve.Router
	agg   *windowAgg
}

func (r *routerProbe) Name() string { return r.inner.Name() }

func (r *routerProbe) Route(req serve.Request, snap *serve.Snapshot, up []bool, load []int64) (int, string) {
	start := time.Now()
	edge, reason := r.inner.Route(req, snap, up, load)
	r.agg.routeNS += int64(time.Since(start))
	r.agg.routes++
	return edge, reason
}

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// logSink is the decision log's io.Writer: it folds the bytes into a CRC-32C
// and counts them, and in the traced run times each Write.
type logSink struct {
	crc   *crc32.Table
	sum   uint32
	bytes int64
	timed bool
	agg   *windowAgg
}

func (w *logSink) Write(b []byte) (int, error) {
	var start time.Time
	if w.timed {
		start = time.Now()
	}
	w.sum = crc32.Update(w.sum, w.crc, b)
	w.bytes += int64(len(b))
	if w.timed {
		w.agg.logNS += int64(time.Since(start))
		w.agg.logWrites++
		w.agg.logBytes += int64(len(b))
	}
	return len(b), nil
}

// lossTable gives the expected model loss of a request of app i routed to
// edge k under one snapshot: the request-weighted loss of the app's
// deployments there, or the app's worst loss when it has none (the request
// cannot be served as planned). Rejected requests score the worst loss.
type lossTable struct {
	id    int64
	worst []float64
	loss  [][]float64
	reqs  [][]int
}

func newLossTable(apps []*models.Application, edges int) *lossTable {
	lt := &lossTable{id: -1}
	for _, a := range apps {
		w := 0.0
		for _, m := range a.Models {
			w = math.Max(w, m.Loss)
		}
		lt.worst = append(lt.worst, w)
		lt.loss = append(lt.loss, make([]float64, edges))
		lt.reqs = append(lt.reqs, make([]int, edges))
	}
	return lt
}

func (lt *lossTable) load(snap *serve.Snapshot, apps []*models.Application) {
	lt.id = snap.ID
	for i := range lt.loss {
		clear(lt.loss[i])
		clear(lt.reqs[i])
	}
	if snap.Plan == nil {
		return
	}
	for _, d := range snap.Plan.Deployments {
		lt.loss[d.App][d.Edge] += apps[d.App].Models[d.Version].Loss * float64(d.Requests)
		lt.reqs[d.App][d.Edge] += d.Requests
	}
}

func (lt *lossTable) of(d serve.Decision) float64 {
	i := d.Req.App
	if !d.Admitted || lt.reqs[i][d.Edge] == 0 {
		return lt.worst[i]
	}
	return lt.loss[i][d.Edge] / float64(lt.reqs[i][d.Edge])
}

// serveRequestsPerRound is the number of requests one round submits.
const serveRequestsPerRound = 250_000

// serveCheckRequests is the prefix replayed at 1 and at nproc workers.
const serveCheckRequests = 100_000

// serveMaxWindows bounds the replans of one round that the run's buffers
// are sized for; a round of the default size makes about 43.
const serveMaxWindows = 4096

// runServe runs the serve workload for at least seconds of whole rounds.
func runServe(o options, setupStart time.Time) (*outcome, error) {
	out := &outcome{}
	perRound := o.requests
	if perRound <= 0 {
		perRound = serveRequestsPerRound
	}
	lat, err := offHeapInt64(perRound)
	if err != nil {
		return nil, err
	}
	// Each request's best Submit time over its group's repeats; off the
	// heap like lat.
	reqBuf, err := offHeapInt64(serveGroups * perRound)
	if err != nil {
		return nil, err
	}
	reqBest := newOpBestIn(reqBuf, serveGroups, perRound)
	// Per input group: each replan's best time and each window's best
	// Submit time over the group's repeats. A window is the requests from
	// one replan to the next, the Submit that runs the replan included.
	replanBest := newOpBest(serveGroups, serveMaxWindows)
	winBest := newOpBest(serveGroups, serveMaxWindows)
	win := make([]int64, 0, serveMaxWindows)
	// Per-round statistics.
	var roundP99 []float64
	var lossPerReq, heapMB, staleQ, staleP50, replanCounts, forcedCounts []float64
	groupSum := make([]uint32, serveGroups)
	var tr *tracer
	agg := &windowAgg{}
	if o.trace {
		tr = newTracer(1 << 18)
	}
	base, baseCost := baselineHeap()

	r, err := buildServeRound(roundSeed(o.seed, 0), serveWorkers, tr, agg)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(setupStart) - baseCost

	var decisions, replans int64
	var solver miqp.Stats
	var rounds int
	cpu0 := processCPU()
	timed := time.Now()
	for {
		chk := newServeChecker(r.c.N(), serveTokenCap, serveTokenRate, r.staleNS)
		lt := newLossTable(r.apps, r.c.N())
		boot := r.planner.replans
		agg.startRound()
		var winNS int64
		win = win[:0]
		var loss float64
		for i := 0; i < perRound; i++ {
			req := r.stream.next()
			start := time.Now()
			d, err := r.loop.Submit(req)
			ns := int64(time.Since(start))
			if err != nil {
				return nil, fmt.Errorf("submit %d: %w", i, err)
			}
			lat[i] = ns
			winNS += ns
			for r.planner.replans > boot+len(win) {
				win = append(win, winNS)
				winNS = 0
			}
			agg.requests++
			chk.note(d)
			if snap := r.loop.Snapshot(); snap.ID != lt.id {
				lt.load(snap, r.apps)
			}
			if d.SnapshotID != lt.id {
				return nil, fmt.Errorf("decision %d read snapshot %d, loop holds %d", d.Seq, d.SnapshotID, lt.id)
			}
			loss += lt.of(d)
		}
		if r.planner.err != nil {
			return nil, r.planner.err
		}
		if err := r.loop.Flush(); err != nil {
			return nil, err
		}
		win = append(win, winNS)
		decisions += int64(perRound)
		replans += int64(r.planner.replans - boot)
		g := rounds % serveGroups
		if err := replanBest.add(g, r.planner.durNS); err != nil {
			return nil, fmt.Errorf("replan times: %w", err)
		}
		if err := winBest.add(g, win); err != nil {
			return nil, fmt.Errorf("window times: %w", err)
		}
		if err := reqBest.add(g, lat[:perRound]); err != nil {
			return nil, fmt.Errorf("request times: %w", err)
		}
		solver.Add(r.planner.solver)
		roundP99 = append(roundP99, float64(quantile(lat[:perRound], 0.99)))
		lossPerReq = append(lossPerReq, loss/float64(perRound))
		if rounds < serveGroups {
			groupSum[g] = r.log.sum
		} else if r.log.sum != groupSum[g] {
			out.errs = append(out.errs, fmt.Sprintf("determinism: round %d replays group %d with decision-log crc %08x, first %08x",
				rounds, g, r.log.sum, groupSum[g]))
		}

		st := r.loop.Stats()
		chk.finish(st)
		if msgs, n := chk.violations(); n > 0 {
			out.errs = append(out.errs, fmt.Sprintf("serve checker: %d violations in round %d", n, rounds))
			out.errs = append(out.errs, msgs...)
		}
		qStart := time.Now()
		p50 := st.StaleQuantileNS(0.5)
		staleQ = append(staleQ, float64(time.Since(qStart))/1e6)
		staleP50 = append(staleP50, float64(p50)/1e6)
		replanCounts = append(replanCounts, float64(st.Replans))
		forcedCounts = append(forcedCounts, float64(st.ForcedReplans))
		rounds++
		if rounds <= serveGroups {
			heapMB = append(heapMB, retainedMB(base))
		}
		runtime.KeepAlive(r)
		if time.Since(timed) >= o.duration {
			break
		}
		if r, err = buildServeRound(roundSeed(o.seed, int64(rounds%serveGroups)), serveWorkers, tr, agg); err != nil {
			return nil, err
		}
	}
	wall := time.Since(timed)
	cpu := processCPU() - cpu0
	out.attempted = decisions

	// The decision log must not depend on the planner's worker count.
	sums := make([]uint32, 2)
	counts := []int{1, runtime.NumCPU()}
	for j, w := range counts {
		cr, err := buildServeRound(roundSeed(o.seed, 0), w, nil, &windowAgg{})
		if err != nil {
			return nil, err
		}
		for i := 0; i < serveCheckRequests; i++ {
			if _, err := cr.loop.Submit(cr.stream.next()); err != nil {
				return nil, err
			}
		}
		if err := cr.loop.Flush(); err != nil {
			return nil, err
		}
		sums[j] = cr.log.sum
	}
	if sums[0] != sums[1] {
		out.errs = append(out.errs, fmt.Sprintf("determinism: decision-log crc over %d requests is %08x at %d workers, %08x at %d",
			serveCheckRequests, sums[0], counts[0], sums[1], counts[1]))
	}

	out.endToEnd = map[string]float64{
		"slot_decide_p50_ms": replanBest.mean(func(_ int, ns []int64) float64 { return float64(quantile(ns, 0.5)) }) / 1e6,
		"slot_decide_p90_ms": replanBest.mean(func(_ int, ns []int64) float64 { return float64(quantile(ns, 0.9)) }) / 1e6,
		"slots_per_s":        winBest.mean(func(_ int, ns []int64) float64 { return float64(len(ns)-1) / (float64(sum(ns)) / 1e9) }),
		"requests_per_s":     winBest.mean(func(_ int, ns []int64) float64 { return float64(perRound) / (float64(sum(ns)) / 1e9) }),
		"request_p50_us":     reqBest.mean(func(_ int, ns []int64) float64 { return float64(quantile(ns, 0.5)) }) / 1e3,
		"mean_loss":          bestPerGroup(lossPerReq, serveGroups, false),
		"retained_heap_mb":   median(heapMB),
	}
	if err := checkMeanLoss(out.endToEnd["mean_loss"], r.apps); err != nil {
		out.errs = append(out.errs, err.Error())
	}
	if tr == nil {
		return out, nil
	}
	layer := zeroLayers()
	solverLayers(layer, solver, replans, int64(rounds))
	layer["core.redistribute_ms"] = float64(quantile(tr.durations("core.redistribute"), 0.5)) / 1e6
	layer["core.solve_edge_ms"] = float64(quantile(tr.durations("core.solve_edge"), 0.5)) / 1e6
	layer["core.replan_ms"] = float64(quantile(tr.durations("core.replan"), 0.5)) / 1e6
	layer["core.decide_alloc_kb"] = float64(quantile(spanCounts(tr, "core.replan", "alloc_bytes"), 0.5)) / 1024
	layer["par.cpu_per_wall"] = float64(cpu) / float64(wall)
	layer["serve.submit_p99_us"] = bestPerGroup(roundP99, serveGroups, false) / 1e3
	layer["serve.admit_ns"] = ratio(agg.admitTotalNS, agg.admits)
	layer["serve.route_ns"] = ratio(agg.routeTotalNS, agg.routes)
	layer["serve.log_write_us"] = ratio(agg.logTotalNS, agg.logWrites) / 1e3
	layer["serve.alloc_bytes_per_request"] = ratio(agg.allocBytes, agg.allocN)
	layer["serve.log_bytes_per_request"] = float64(r.log.bytes) / float64(perRound)
	layer["serve.replans"] = median(replanCounts)
	layer["serve.forced_replans"] = median(forcedCounts)
	layer["serve.stale_p50_ms"] = median(staleP50)
	layer["metrics.stale_quantile_ms"] = median(staleQ)
	out.perLayer = layer
	out.tracer = tr
	return out, nil
}

// spanCounts returns the named count of every span with the given name.
func spanCounts(tr *tracer, name, key string) []int64 {
	var out []int64
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.name != name {
			continue
		}
		for _, c := range s.counts[:s.nCounts] {
			if c.key == key {
				out = append(out, c.val)
			}
		}
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

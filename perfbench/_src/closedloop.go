package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/miqp"
	"repro/internal/models"
	"repro/internal/trace"
)

// closedSpec describes a closed-loop workload: BIRP with the online tuner
// drives edgesim.Sim through Decide → execute → Observe over the fig7 trace
// shape, one fresh scheduler and simulator per round.
type closedSpec struct {
	// edges = 0 builds cluster.Default() (the paper's 6-edge testbed);
	// otherwise a seeded cluster.Scaled fleet of that size.
	edges int
	// domainSize > 0 switches to hierarchical scheduling with domains of at
	// most that many edges.
	domainSize int
	// slots per round: one round replays the trace from its first slot.
	slots int
	// groups is how many input groups a run cycles through: round r replays
	// group r mod groups.
	groups int
	// workers is the timed run's solve parallelism; checkWorkers the other
	// count the plan-sequence hash is compared at, over checkSlots slots.
	workers, checkWorkers, checkSlots int
}

// The fig7 trace shape and execution noise (internal/experiments).
const (
	largeApps, largeVersions = 5, 5
	largeMeanPerSlot         = 31
)

func closedApps() []*models.Application { return models.Catalogue(largeApps, largeVersions) }

// closedRound is one round's program: everything a user of the scheduler
// builds before the first slot.
type closedRound struct {
	c     *cluster.Cluster
	apps  []*models.Application
	tr    *trace.Trace
	sched *core.Scheduler
	sim   *edgesim.Sim
}

func buildClosedRound(spec closedSpec, seed int64, workers int) (*closedRound, error) {
	r := &closedRound{apps: closedApps()}
	if spec.edges == 0 {
		r.c = cluster.Default(cluster.WithSeed(seed))
	} else {
		c, err := cluster.Scaled(spec.edges, cluster.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		r.c = c
	}
	tr, err := trace.Generate(trace.Config{
		Apps: largeApps, Edges: r.c.N(), Slots: spec.slots, Seed: seed,
		MeanPerSlot: largeMeanPerSlot, Imbalance: 0.8, BurstProb: 0.05, BurstScale: 2,
	})
	if err != nil {
		return nil, err
	}
	r.tr = tr
	r.sched, err = core.New(core.Config{
		Cluster: r.c, Apps: r.apps,
		Provider:   core.NewOnlineTuner(0.04, 0.07),
		Workers:    workers,
		DomainSize: spec.domainSize,
	})
	if err != nil {
		return nil, err
	}
	r.sim, err = edgesim.New(edgesim.Config{
		Cluster: r.c, Apps: r.apps, NoiseSigma: 0.02, SlotNoiseSigma: 0.05, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// slotProbe is the edgesim.Scheduler the simulator drives: it forwards to
// the BIRP scheduler, times Decide and Observe, and checks and hashes every
// plan. Its own work is summed in ownNS so that the loop time excludes it.
type slotProbe struct {
	sched   *core.Scheduler
	check   *planChecker
	hash    planHasher
	samples *closedSamples
	ownNS   int64

	// hashAt/prefixHash capture the plan-sequence hash after hashAt slots.
	hashAt     int
	prefixHash uint64
	// firstDecided is when slot 0's Decide returned: a cold set-up ends
	// with the scheduler's first decision.
	firstDecided time.Time

	// mark is when the previous slot's Observe returned (the round's start
	// for slot 0), and ownAtMark the benchmark's own time by then: a slot's
	// closed-loop time is the time from mark to its Observe's return, less
	// the benchmark's own work in between.
	mark      time.Time
	ownAtMark int64

	// Traced run only.
	tr       *tracer
	replay   *replayer
	slotSpan int32
	mem      runtime.MemStats
	afterDec time.Time
	err      error
}

// closedSamples gathers one run's measurements across rounds. Its buffers
// are allocated before the baseline heap reading.
type closedSamples struct {
	// Per slot of the current round: Decide time, arrivals, and closed-loop
	// time (the benchmark's own work excluded).
	decideNS, arrivals, loopNS []int64
	// Per slot of the whole run (traced run).
	observeNS  []int64
	allocBytes []int64
	solver     miqp.Stats
	slots      int64
	wallNS     int64
	cpuNS      int64
	// Per input group: each slot's best Decide time and best closed-loop
	// time over the group's repeats, and each slot's arrivals.
	decide, loop *opBest
	weights      [][]int64
	// Per round: loss per request; and the retained heap of each group's
	// first round.
	loss, heapMB  []float64
	roundArrivals int64
	roundLoss     float64
}

func newClosedSamples(capacity, groups, slots int) *closedSamples {
	s := &closedSamples{
		decideNS:   make([]int64, 0, slots),
		arrivals:   make([]int64, 0, slots),
		loopNS:     make([]int64, 0, slots),
		observeNS:  make([]int64, 0, capacity),
		allocBytes: make([]int64, 0, capacity),
		decide:     newOpBest(groups, slots),
		loop:       newOpBest(groups, slots),
		weights:    make([][]int64, groups),
		loss:       make([]float64, 0, 1024),
		heapMB:     make([]float64, 0, groups),
	}
	for g := range s.weights {
		s.weights[g] = make([]int64, 0, slots)
	}
	return s
}

func (p *slotProbe) Name() string { return p.sched.Name() }

func (p *slotProbe) Decide(t int, arrivals [][]int) (*edgesim.Plan, error) {
	entry := time.Now()
	if p.tr != nil {
		p.slotSpan = p.tr.begin("edgesim.slot", -1, int64(t), entry)
		runtime.ReadMemStats(&p.mem)
	}
	before := p.mem.TotalAlloc
	start := time.Now()
	plan, err := p.sched.Decide(t, arrivals)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	n := int64(0)
	for _, row := range arrivals {
		for _, v := range row {
			n += int64(v)
		}
	}
	if t == 0 {
		p.firstDecided = end
	}
	if p.samples != nil {
		p.samples.decideNS = append(p.samples.decideNS, int64(end.Sub(start)))
		p.samples.arrivals = append(p.samples.arrivals, n)
		p.samples.roundArrivals += n
		if plan.Solver != nil {
			p.samples.solver.Add(*plan.Solver)
		}
	}
	if p.tr != nil {
		runtime.ReadMemStats(&p.mem)
		alloc := int64(p.mem.TotalAlloc - before)
		if p.samples != nil {
			p.samples.allocBytes = append(p.samples.allocBytes, alloc)
		}
		id := p.tr.record("core.decide", p.slotSpan, int64(t), start, end)
		if st := plan.Solver; st != nil {
			p.tr.count(id, "nodes", int64(st.Nodes))
			p.tr.count(id, "relaxations", int64(st.Relaxations))
			p.tr.count(id, "pivots", int64(st.Pivots))
			p.tr.count(id, "refactorizations", int64(st.Refactorizations))
			p.tr.count(id, "warm_hits", int64(st.WarmHits))
		}
		p.tr.count(id, "alloc_bytes", alloc)
		if err := p.replay.replay(t, arrivals, plan, p.slotSpan, int64(t)); err != nil && p.err == nil {
			p.err = err
		}
	}
	chk := time.Now()
	p.check.check(t, arrivals, plan)
	p.hash.add(plan)
	if t+1 == p.hashAt {
		p.prefixHash = p.hash.h
	}
	p.afterDec = time.Now()
	p.tr.record("bench.check", p.slotSpan, int64(t), chk, p.afterDec)
	p.ownNS += int64(p.afterDec.Sub(entry) - end.Sub(start))
	return plan, nil
}

func (p *slotProbe) Observe(t int, fbs []edgesim.Feedback) {
	start := time.Now()
	p.sched.Observe(t, fbs)
	end := time.Now()
	if p.samples != nil {
		p.samples.observeNS = append(p.samples.observeNS, int64(end.Sub(start)))
	}
	if p.tr != nil {
		p.tr.record("bandit.observe", p.slotSpan, int64(t), start, end)
		p.tr.finish(p.slotSpan, time.Now())
		p.ownNS += int64(time.Since(end))
	}
	if p.samples != nil {
		now := time.Now()
		p.samples.loopNS = append(p.samples.loopNS, int64(now.Sub(p.mark))-(p.ownNS-p.ownAtMark))
		p.mark, p.ownAtMark = now, p.ownNS
	}
}

// processCPU returns the process's user + system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runClosedRound drives one round through the simulator and checks its
// outputs, appending any violation to errs.
func runClosedRound(r *closedRound, p *slotProbe, slots int, errs *[]string) error {
	cpu0, wall0 := processCPU(), time.Now()
	p.mark, p.ownAtMark = wall0, p.ownNS
	res, err := r.sim.Run(p, r.tr.R[:slots])
	wall := time.Since(wall0)
	cpu := processCPU() - cpu0
	if err != nil {
		return err
	}
	if p.err != nil {
		return p.err
	}
	var want int64
	for _, slot := range r.tr.R[:slots] {
		for _, row := range slot {
			for _, v := range row {
				want += int64(v)
			}
		}
	}
	if err := checkArrivalTotal(want, int64(res.Served), int64(res.Dropped)); err != nil {
		*errs = append(*errs, err.Error())
	}
	if len(res.Violations) > 0 {
		*errs = append(*errs, fmt.Sprintf("simulator: %d plan violations, first %s", len(res.Violations), res.Violations[0]))
	}
	if want > 0 {
		if err := checkMeanLoss(res.Loss.Total()/float64(want), r.apps); err != nil {
			*errs = append(*errs, err.Error())
		}
	}
	if s := p.samples; s != nil {
		s.wallNS += int64(wall)
		s.cpuNS += int64(cpu)
		s.roundLoss = res.Loss.Total()
	}
	return nil
}

// endRound folds the round just run, a repeat of input group g, into the
// group's best per-slot times.
func (s *closedSamples) endRound(g int) error {
	if err := s.decide.add(g, s.decideNS); err != nil {
		return fmt.Errorf("decide times: %w", err)
	}
	if err := s.loop.add(g, s.loopNS); err != nil {
		return fmt.Errorf("closed-loop times: %w", err)
	}
	if len(s.weights[g]) == 0 {
		s.weights[g] = append(s.weights[g], s.arrivals...)
	}
	s.loss = append(s.loss, s.roundLoss/float64(s.roundArrivals))
	s.decideNS, s.arrivals, s.loopNS = s.decideNS[:0], s.arrivals[:0], s.loopNS[:0]
	s.roundArrivals = 0
	return nil
}

// decideQuantile is the q-quantile of Decide time over a round's slots
// after the first, each slot at its best repeat, averaged over the groups.
// Slot 0 is the fresh scheduler's first decision, which belongs to set-up;
// a scheduler runs for many slots after it. weighted weighs each slot by
// its arrivals, which gives the decision delay a request sees.
func (s *closedSamples) decideQuantile(q float64, weighted bool) float64 {
	return s.decide.mean(func(g int, best []int64) float64 {
		xs := make([]weightedSample, 0, len(best))
		for i, v := range best[1:] {
			w := int64(1)
			if weighted {
				w = s.weights[g][i+1]
			}
			xs = append(xs, weightedSample{v: v, w: w})
		}
		return float64(weightedQuantile(xs, q))
	})
}

// loopRate is per-slot work (1 per slot, or the slot's arrivals) per
// second of closed-loop time, each slot at its best repeat, averaged over
// the groups.
func (s *closedSamples) loopRate(perArrival bool) float64 {
	return s.loop.mean(func(g int, best []int64) float64 {
		n := int64(len(best))
		if perArrival {
			n = sum(s.weights[g])
		}
		return float64(n) / (float64(sum(best)) / 1e9)
	})
}

// runClosed runs the closed-loop workload for at least seconds of whole
// rounds and returns its metrics.
func runClosed(spec closedSpec, o options, setupStart time.Time) (*outcome, error) {
	out := &outcome{}
	samples := newClosedSamples(1<<15, spec.groups, spec.slots)
	var tr *tracer
	if o.trace {
		tr = newTracer(1 << 18)
	}
	base, baseCost := baselineHeap()

	r, err := buildClosedRound(spec, roundSeed(o.seed, 0), spec.workers)
	if err != nil {
		return nil, err
	}

	var prefixHash uint64
	groupHash := make([]uint64, spec.groups)
	var rounds int64
	timed := time.Now()
	for {
		p := &slotProbe{
			sched: r.sched, check: newPlanChecker(r.c, r.apps), hash: newPlanHasher(),
			samples: samples, hashAt: spec.checkSlots, tr: tr,
		}
		if tr != nil {
			p.replay, err = newReplayer(r.c, r.apps, r.sched.Provider(), spec.domainSize, tr)
			if err != nil {
				return nil, err
			}
		}
		if err := runClosedRound(r, p, spec.slots, &out.errs); err != nil {
			return nil, err
		}
		if msgs, n := p.check.violations(); n > 0 {
			out.errs = append(out.errs, fmt.Sprintf("plan checker: %d violations in round %d", n, rounds))
			out.errs = append(out.errs, msgs...)
		}
		g := rounds % int64(spec.groups)
		if rounds == 0 {
			prefixHash = p.prefixHash
			out.setup = p.firstDecided.Sub(setupStart) - baseCost
		}
		if rounds < int64(spec.groups) {
			groupHash[g] = p.hash.h
		} else if p.hash.h != groupHash[g] {
			out.errs = append(out.errs, fmt.Sprintf("determinism: round %d replays group %d with plan hash %016x, first %016x",
				rounds, g, p.hash.h, groupHash[g]))
		}
		if err := samples.endRound(int(g)); err != nil {
			return nil, err
		}
		samples.slots += int64(spec.slots)
		rounds++
		if rounds <= int64(spec.groups) {
			samples.heapMB = append(samples.heapMB, retainedMB(base))
		}
		runtime.KeepAlive(r)
		if time.Since(timed) >= o.duration {
			break
		}
		if r, err = buildClosedRound(spec, roundSeed(o.seed, rounds%int64(spec.groups)), spec.workers); err != nil {
			return nil, err
		}
	}
	out.attempted = samples.slots

	// The same slots at the other worker count must give the same plans.
	check, err := buildClosedRound(spec, roundSeed(o.seed, 0), spec.checkWorkers)
	if err != nil {
		return nil, err
	}
	cp := &slotProbe{sched: check.sched, check: newPlanChecker(check.c, check.apps), hash: newPlanHasher(), hashAt: spec.checkSlots}
	if err := runClosedRound(check, cp, spec.checkSlots, &out.errs); err != nil {
		return nil, err
	}
	if cp.prefixHash != prefixHash {
		out.errs = append(out.errs, fmt.Sprintf("determinism: plan hash over %d slots is %016x at %d workers, %016x at %d",
			spec.checkSlots, prefixHash, spec.workers, cp.prefixHash, spec.checkWorkers))
	}

	e2e := map[string]float64{
		"slot_decide_p50_ms": samples.decideQuantile(0.5, false) / 1e6,
		"slot_decide_p90_ms": samples.decideQuantile(0.9, false) / 1e6,
		"slots_per_s":        samples.loopRate(false),
		"requests_per_s":     samples.loopRate(true),
		"request_p50_us":     samples.decideQuantile(0.5, true) / 1e3,
		"mean_loss":          bestPerGroup(samples.loss, spec.groups, false),
		"retained_heap_mb":   median(samples.heapMB),
	}
	out.endToEnd = e2e
	if tr == nil {
		return out, nil
	}

	layer := zeroLayers()
	solverLayers(layer, samples.solver, samples.slots, rounds)
	layer["core.redistribute_ms"] = float64(quantile(tr.durations("core.redistribute"), 0.5)) / 1e6
	layer["core.solve_edge_ms"] = float64(quantile(tr.durations("core.solve_edge"), 0.5)) / 1e6
	layer["core.decide_alloc_kb"] = float64(quantile(samples.allocBytes, 0.5)) / 1024
	layer["par.cpu_per_wall"] = float64(samples.cpuNS) / float64(samples.wallNS)
	layer["bandit.observe_us"] = float64(quantile(samples.observeNS, 0.5)) / 1e3
	layer["edgesim.execute_ms"] = float64(quantile(tr.selfTimes("edgesim.slot"), 0.5)) / 1e6
	out.perLayer = layer
	out.tracer = tr
	return out, nil
}

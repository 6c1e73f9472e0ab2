// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: Table 1 (utilization/FPS),
// Fig. 2 (TIR laws), Fig. 4/5 (ε1/ε2 preset sweeps), and Fig. 6/7
// (small/large-scale comparisons of BIRP, BIRP-OFF, OAEI, MAX).
//
// Each experiment takes an Options value and writes the same rows/series the
// paper reports to an io.Writer; the structured results are also returned so
// tests and benches can assert on shapes (who wins, by what factor).
package experiments

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/miqp"
	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/trace"
)

// Options parameterizes an experiment run.
type Options struct {
	// Seed drives trace generation and execution noise.
	Seed int64
	// Slots is the evaluation horizon (0 = 300, the paper's three days of
	// 15-minute slots truncated to its plotted range).
	Slots int
	// Quick shrinks the run for benchmarks (fewer slots, coarser sweeps).
	Quick bool
	// Eps1/Eps2 are BIRP's presets; zero means the paper's §5.3 choice
	// (0.04, 0.07).
	Eps1, Eps2 float64
	// Workers bounds experiment parallelism: independent runs (comparison
	// arms, sweep grid cells, ablation variants) execute concurrently, and
	// the value is forwarded to core.Config.Workers for the solve engine.
	// Every run keeps its own seeded RNGs and results are gathered in a fixed
	// order, so output is identical for every worker count. ≤ 0 means one
	// worker per CPU.
	Workers int
	// DisableSlotReuse forwards core.Config.DisableSlotReuse to every
	// core-family arm (BIRP, BIRP-OFF, OAEI, MAX): cross-slot incumbent
	// seeding and plan memoization are switched off and each slot solves
	// cold. For A/B measurement; reuse-on and reuse-off runs agree within the
	// solver's certified gap tolerance.
	DisableSlotReuse bool
	// Hierarchical enables domain-decomposed scheduling for every core-family
	// arm: the fleet partitions into bounded-size collaboration domains
	// (DomainSize, default cluster.DefaultDomainSize) solved concurrently
	// behind a deterministic cross-domain coordinator. Domains > 0 fixes the
	// domain count instead; either field alone also enables the mode.
	Hierarchical bool
	// Domains fixes the number of collaboration domains (hierarchical mode).
	Domains int
	// DomainSize bounds domain sizes (hierarchical mode; 0 with Hierarchical
	// set means cluster.DefaultDomainSize).
	DomainSize int
	// K is the fleet size for the Scale experiment (0 = 50).
	K int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Slots == 0 {
		o.Slots = 300
		if o.Quick {
			o.Slots = 40
		}
	}
	if mat.Zero(o.Eps1) {
		o.Eps1 = 0.04
	}
	if mat.Zero(o.Eps2) {
		o.Eps2 = 0.07
	}
	return o
}

// Paper-calibrated operating points (see DESIGN.md §4 and the load scans in
// internal/baseline): means chosen so hot edges cross into the
// compute-bound band where serial execution violates the slot but batching
// fits — the regime the paper evaluates.
const (
	smallScaleApps     = 1
	smallScaleVersions = 3
	smallScaleMean     = 95
	largeScaleApps     = 5
	largeScaleVersions = 5
	largeScaleMean     = 31
)

// EvalResult is one algorithm's outcome in a comparison experiment.
type EvalResult struct {
	Name string
	// Completion is the per-request normalized completion time sample.
	Completion []float64
	// PerSlot and Cumulative are the Fig. 6b/c loss series.
	PerSlot    []float64
	Cumulative []float64
	// FailureRate is the paper's p% (fraction with τ > 1).
	FailureRate float64
	// Dropped counts shed requests.
	Dropped int
	// EnergyJ is total cluster energy over the run (extension metric).
	EnergyJ float64
	// Solver holds the cumulative MIQP solver counters for schedulers that
	// expose them (the core BIRP family); nil for the baselines.
	Solver *miqp.Stats
}

// CDF returns the completion-time CDF.
func (r *EvalResult) CDF() *metrics.CDF { return metrics.NewCDF(r.Completion) }

// TotalLoss returns the final cumulative loss.
func (r *EvalResult) TotalLoss() float64 {
	if len(r.Cumulative) == 0 {
		return 0
	}
	return r.Cumulative[len(r.Cumulative)-1]
}

// schedulerSpec names a comparison algorithm and its constructor.
type schedulerSpec struct {
	name string
	make func() (edgesim.Scheduler, error)
}

// coreMod forwards the option fields every core-family arm shares (solver
// parallelism, slot-reuse switch) into a core.Config.
func coreMod(opt Options) func(*core.Config) {
	return func(cfg *core.Config) {
		cfg.Workers = opt.Workers
		cfg.DisableSlotReuse = opt.DisableSlotReuse
		if opt.Hierarchical || opt.Domains > 0 || opt.DomainSize > 0 {
			cfg.Domains = opt.Domains
			cfg.DomainSize = opt.DomainSize
			if cfg.Domains == 0 && cfg.DomainSize == 0 {
				cfg.DomainSize = cluster.DefaultDomainSize
			}
		}
	}
}

func birpSpec(c *cluster.Cluster, apps []*models.Application, opt Options) schedulerSpec {
	return schedulerSpec{"BIRP", func() (edgesim.Scheduler, error) {
		cfg := core.Config{
			Cluster: c, Apps: apps,
			Provider: core.NewOnlineTuner(opt.Eps1, opt.Eps2),
		}
		coreMod(opt)(&cfg)
		return core.New(cfg)
	}}
}

func birpOffSpec(c *cluster.Cluster, apps []*models.Application, opt Options) schedulerSpec {
	return schedulerSpec{"BIRP-OFF", func() (edgesim.Scheduler, error) {
		return baseline.NewBIRPOffConfig(c, apps, 16, coreMod(opt))
	}}
}

func oaeiSpec(c *cluster.Cluster, apps []*models.Application, opt Options) schedulerSpec {
	return schedulerSpec{"OAEI", func() (edgesim.Scheduler, error) {
		return baseline.NewOAEIConfig(c, apps, opt.Seed, coreMod(opt))
	}}
}

func maxSpec(c *cluster.Cluster, apps []*models.Application, opt Options) schedulerSpec {
	return schedulerSpec{"MAX", func() (edgesim.Scheduler, error) {
		return baseline.NewMAXConfig(c, apps, 16, coreMod(opt))
	}}
}

// runComparison executes each scheduler against the same trace and noise.
func runComparison(c *cluster.Cluster, apps []*models.Application, specs []schedulerSpec, opt Options) ([]EvalResult, error) {
	mean := float64(smallScaleMean)
	if len(apps) > 1 {
		mean = largeScaleMean
	}
	tr, err := trace.Generate(trace.Config{
		Apps: len(apps), Edges: c.N(), Slots: opt.Slots, Seed: opt.Seed,
		MeanPerSlot: mean, Imbalance: 0.8, BurstProb: 0.05, BurstScale: 2,
	})
	if err != nil {
		return nil, err
	}
	// Each arm owns its scheduler, simulator, and seeded RNGs, so the arms
	// run concurrently; results land in per-arm slots so the output order is
	// the spec order regardless of completion order. The fan-out is capped at
	// the schedulable CPUs (CapWorkers) like the in-solver pools: arms are
	// CPU-bound, so a wider pool only interleaves them and pays switch and
	// cache-pressure overhead without finishing any sooner.
	out := make([]EvalResult, len(specs))
	if err := par.ForEach(par.CapWorkers(opt.Workers), len(specs), func(_, idx int) error {
		spec := specs[idx]
		sched, err := spec.make()
		if err != nil {
			return fmt.Errorf("experiments: building %s: %w", spec.name, err)
		}
		sim, err := edgesim.New(edgesim.Config{
			Cluster: c, Apps: apps,
			NoiseSigma: 0.02, SlotNoiseSigma: 0.05, Seed: opt.Seed,
		})
		if err != nil {
			return err
		}
		res, err := sim.Run(sched, tr.R)
		if err != nil {
			return fmt.Errorf("experiments: running %s: %w", spec.name, err)
		}
		out[idx] = EvalResult{
			Name:        spec.name,
			Completion:  res.Completion,
			PerSlot:     append([]float64(nil), res.Loss.PerSlot()...),
			Cumulative:  append([]float64(nil), res.Loss.Cumulative()...),
			FailureRate: res.FailureRate(),
			Dropped:     res.Dropped,
			EnergyJ:     res.EnergyJ,
		}
		if sp, ok := sched.(interface{ SolverStats() miqp.Stats }); ok {
			st := sp.SolverStats()
			out[idx].Solver = &st
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// writeComparison prints the three panels (CDF, per-slot loss, cumulative
// loss) the way the paper's figures report them.
func writeComparison(w io.Writer, title string, results []EvalResult) {
	fmt.Fprintf(w, "== %s ==\n\n", title)

	cdfTab := metrics.NewTable(append([]string{"tau"}, names(results)...)...)
	cdfs := make([]*metrics.CDF, len(results))
	for i := range results {
		cdfs[i] = results[i].CDF()
	}
	for _, x := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5} {
		row := []string{fmt.Sprintf("%.1f", x)}
		for _, c := range cdfs {
			row = append(row, fmt.Sprintf("%.3f", c.At(x)))
		}
		cdfTab.AddRow(row...)
	}
	fmt.Fprintf(w, "(a) CDF of inference completion time\n%s\n", cdfTab)

	fail := metrics.NewTable("algorithm", "p% (SLO failures)", "dropped", "energy (kJ)", "completion percentiles (τ)")
	for _, r := range results {
		fail.AddRow(r.Name, fmt.Sprintf("%.2f%%", 100*r.FailureRate), fmt.Sprintf("%d", r.Dropped),
			fmt.Sprintf("%.1f", r.EnergyJ/1000),
			metrics.SummarizePercentiles(r.Completion).String())
	}
	fmt.Fprintf(w, "%s\n", fail)

	lossTab := metrics.NewTable(append([]string{"t"}, names(results)...)...)
	step := len(results[0].PerSlot) / 10
	if step == 0 {
		step = 1
	}
	for t := 0; t < len(results[0].PerSlot); t += step {
		row := []string{fmt.Sprintf("%d", t)}
		for _, r := range results {
			row = append(row, fmt.Sprintf("%.1f", r.PerSlot[t]))
		}
		lossTab.AddRow(row...)
	}
	fmt.Fprintf(w, "(b) per-slot inference loss\n%s\n", lossTab)
	spark := map[string][]float64{}
	for _, r := range results {
		spark[r.Name] = r.PerSlot
	}
	fmt.Fprintf(w, "per-slot loss over time:\n%s\n", metrics.SeriesChart(64, spark, names(results)))

	cumTab := metrics.NewTable(append([]string{"t"}, names(results)...)...)
	for t := 0; t < len(results[0].Cumulative); t += step {
		row := []string{fmt.Sprintf("%d", t)}
		for _, r := range results {
			row = append(row, fmt.Sprintf("%.0f", r.Cumulative[t]))
		}
		cumTab.AddRow(row...)
	}
	last := len(results[0].Cumulative) - 1
	row := []string{fmt.Sprintf("%d", last)}
	for _, r := range results {
		row = append(row, fmt.Sprintf("%.0f", r.Cumulative[last]))
	}
	cumTab.AddRow(row...)
	fmt.Fprintf(w, "(c) cumulative inference loss\n%s\n", cumTab)
}

func names(results []EvalResult) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Name
	}
	return out
}

// Fig6 runs the small-scale evaluation (one application, three model
// versions, one edge of each type; TIR profiled offline for BIRP-OFF).
func Fig6(w io.Writer, opt Options) ([]EvalResult, error) {
	opt = opt.withDefaults()
	c := cluster.Small()
	apps := models.Catalogue(smallScaleApps, smallScaleVersions)
	specs := []schedulerSpec{
		birpOffSpec(c, apps, opt),
		birpSpec(c, apps, opt),
		oaeiSpec(c, apps, opt),
		maxSpec(c, apps, opt),
	}
	results, err := runComparison(c, apps, specs, opt)
	if err != nil {
		return nil, err
	}
	if w != nil {
		writeComparison(w, "Fig. 6 — small-scale evaluation (1 app × 3 models, 3 edges)", results)
	}
	return results, nil
}

// Fig7 runs the large-scale evaluation (five applications × five versions on
// the full six-edge cluster; BIRP-OFF omitted as in the paper).
func Fig7(w io.Writer, opt Options) ([]EvalResult, error) {
	opt = opt.withDefaults()
	c := cluster.Default()
	apps := models.Catalogue(largeScaleApps, largeScaleVersions)
	specs := []schedulerSpec{
		birpSpec(c, apps, opt),
		oaeiSpec(c, apps, opt),
		maxSpec(c, apps, opt),
	}
	results, err := runComparison(c, apps, specs, opt)
	if err != nil {
		return nil, err
	}
	if w != nil {
		writeComparison(w, "Fig. 7 — large-scale evaluation (5 apps × 5 models, 6 edges)", results)
	}
	return results, nil
}

// Find returns the result with the given algorithm name, or nil.
func Find(results []EvalResult, name string) *EvalResult {
	for i := range results {
		if results[i].Name == name {
			return &results[i]
		}
	}
	return nil
}

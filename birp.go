// Package birp is the public API of this BIRP reproduction: batch-aware
// inference workload redistribution and parallel execution for edge
// collaborative systems (Sun et al., ICPP 2023).
//
// The package re-exports the stable surface of the internal packages:
//
//   - topology and workloads: DefaultCluster, SmallCluster, Catalogue,
//     GenerateTrace;
//   - schedulers: NewBIRP (the paper's contribution), NewBIRPOff, NewOAEI,
//     NewMAX (the evaluation baselines);
//   - executors: NewSimulator (slot-level simulation) and the edgenet
//     distributed prototype re-exported as SchedulerServer/EdgeAgent;
//   - experiments: Table1, Fig2, Fig6, Fig7, PresetSweep regenerate the
//     paper's tables and figures.
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package birp

import (
	"io"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgenet"
	"repro/internal/edgesim"
	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/miqp"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Re-exported core types. These aliases are the supported public names; the
// internal packages may reorganize underneath them.
type (
	// Cluster is the edge collaborative system topology.
	Cluster = cluster.Cluster
	// Edge is one participant edge.
	Edge = cluster.Edge
	// Application is one intelligent application with its model ladder.
	Application = models.Application
	// Model is one deployable DNN model version.
	Model = models.Model
	// Scheduler is a per-slot decision maker.
	Scheduler = edgesim.Scheduler
	// Plan is one slot's decision (deployments, transfers, drops).
	Plan = edgesim.Plan
	// Results aggregates a simulation run.
	Results = edgesim.Results
	// Trace is an arrival stream r[t][i][k].
	Trace = trace.Trace
	// TraceConfig parameterizes the synthetic workload generator.
	TraceConfig = trace.Config
	// SchedulerServer is the distributed prototype's coordinator.
	SchedulerServer = edgenet.Server
	// EdgeAgent is the distributed prototype's per-edge worker.
	EdgeAgent = edgenet.Agent
	// ServerConfig configures a SchedulerServer.
	ServerConfig = edgenet.ServerConfig
	// AgentConfig configures an EdgeAgent.
	AgentConfig = edgenet.AgentConfig
	// Report aggregates a distributed run (failed/rejoined edges included).
	Report = edgenet.Report
	// ExperimentOptions parameterizes the paper-experiment runners.
	ExperimentOptions = experiments.Options
	// EvalResult is one algorithm's outcome in a comparison experiment.
	EvalResult = experiments.EvalResult
	// SolverStats aggregates the MIQP engine's observability counters
	// (branch-and-bound nodes, warm-start hit rate, simplex pivots, presolve
	// reductions); EvalResult.Solver carries them for the BIRP arms.
	SolverStats = miqp.Stats
	// ServeLoop is the online serving loop: admission → routing against an
	// immutable plan snapshot, with background re-optimization over the
	// rolling arrival window (cmd/birpserve is its daemon front end).
	ServeLoop = serve.Loop
	// ServeConfig assembles a ServeLoop.
	ServeConfig = serve.Config
	// ServeRequest is one inference request offered to the serving loop.
	ServeRequest = serve.Request
	// ServeDecision is the outcome of one served request.
	ServeDecision = serve.Decision
	// ServeStats aggregates the serving loop's admission/routing/staleness
	// counters.
	ServeStats = metrics.ServeStats
	// ServePlanner re-solves the slot optimizer over a rolling window.
	ServePlanner = serve.Planner
	// ServeFrontend serves the JSON-lines request protocol over TCP.
	ServeFrontend = serve.Frontend
)

// DefaultCluster returns the paper's testbed: Jetson NX, Jetson Nano, and
// Atlas 200DK, two instances each.
func DefaultCluster() *Cluster { return cluster.Default() }

// SmallCluster returns the small-scale testbed: one edge per device type.
func SmallCluster() *Cluster { return cluster.Small() }

// EdgeSpec describes one edge for CustomCluster.
type EdgeSpec = cluster.EdgeSpec

// Devices available for custom clusters.
var (
	JetsonNano = &accel.JetsonNano
	JetsonNX   = &accel.JetsonNX
	Atlas200DK = &accel.Atlas200DK
	EdgeTPU    = &accel.EdgeTPU
)

// CustomCluster builds an arbitrary validated topology.
func CustomCluster(specs []EdgeSpec, opts ...cluster.Option) (*Cluster, error) {
	return cluster.Custom(specs, opts...)
}

// WithSlotSeconds overrides a cluster's slot duration at construction.
func WithSlotSeconds(s float64) cluster.Option { return cluster.WithSlotSeconds(s) }

// WithSeed sets a cluster's per-slot bandwidth-realization seed.
func WithSeed(seed int64) cluster.Option { return cluster.WithSeed(seed) }

// ScaledCluster builds a seeded synthetic fleet of k heterogeneous edges for
// scale experiments (K up to the hundreds) — the natural topology for
// hierarchical scheduling (SchedulerOptions.Domains/DomainSize).
func ScaledCluster(k int, opts ...cluster.Option) (*Cluster, error) {
	return cluster.Scaled(k, opts...)
}

// Catalogue builds the evaluation model catalogue (nApps applications ×
// nVersions model versions spanning the paper's parameter ranges).
func Catalogue(nApps, nVersions int) []*Application { return models.Catalogue(nApps, nVersions) }

// DefaultTraceConfig is the evaluation workload setting (5 apps, 6 edges,
// three days of 15-minute slots).
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// GenerateTrace builds a synthetic arrival stream.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// LoadTrace reads a trace previously written with Trace.Save.
func LoadTrace(r io.Reader) (*Trace, error) { return trace.Load(r) }

// SchedulerOptions tunes scheduler construction.
type SchedulerOptions struct {
	// Eps1, Eps2 are BIRP's MAB presets (0 = the paper's 0.04/0.07).
	Eps1, Eps2 float64
	// Seed drives OAEI's randomized rounding.
	Seed int64
	// B0 is MAX's fixed batch size (0 = 16).
	B0 int
	// ProfileMaxBatch bounds BIRP-OFF's offline TIR profiling (0 = 16).
	ProfileMaxBatch int
	// Workers bounds BIRP's solve parallelism (concurrent per-edge MILPs and
	// branch-and-bound relaxations). ≤ 0 means one worker per CPU. Decisions
	// are bit-identical for every value; only wall-clock time changes.
	Workers int
	// DisableSlotReuse turns off the cross-slot temporal acceleration layer
	// (incumbent seeding from the previous slot's plan, plan memoization) for
	// the core-family schedulers, so every slot solves cold. Reuse only
	// changes the certified starting incumbent; reuse-on and reuse-off
	// decisions agree within the solver's gap tolerance.
	DisableSlotReuse bool
	// Domains > 0 enables hierarchical domain-decomposed scheduling with
	// exactly that many collaboration domains: each domain solves its own
	// redistribution LP + per-edge MILPs concurrently behind a deterministic
	// cross-domain coordinator. Near-linear scaling to fleets of hundreds of
	// edges; decisions remain bit-identical across Workers values.
	Domains int
	// DomainSize bounds domain sizes instead of fixing the count (the fleet
	// splits into ⌈K/DomainSize⌉ domains). Either knob enables hierarchical
	// scheduling; both zero means monolithic.
	DomainSize int
}

// coreMod returns a config hook forwarding the shared core knobs.
func (o SchedulerOptions) coreMod() func(*core.Config) {
	return func(cfg *core.Config) {
		cfg.Workers = o.Workers
		cfg.DisableSlotReuse = o.DisableSlotReuse
		cfg.Domains = o.Domains
		cfg.DomainSize = o.DomainSize
	}
}

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if mat.Zero(o.Eps1) {
		o.Eps1 = 0.04
	}
	if mat.Zero(o.Eps2) {
		o.Eps2 = 0.07
	}
	if o.B0 == 0 {
		o.B0 = 16
	}
	if o.ProfileMaxBatch == 0 {
		o.ProfileMaxBatch = 16
	}
	return o
}

// NewBIRP builds the paper's scheduler: batch-aware redistribution with
// online MAB hyperparameter tuning.
func NewBIRP(c *Cluster, apps []*Application, opt SchedulerOptions) (Scheduler, error) {
	opt = opt.withDefaults()
	cfg := core.Config{
		Cluster: c, Apps: apps,
		Provider: core.NewOnlineTuner(opt.Eps1, opt.Eps2),
	}
	opt.coreMod()(&cfg)
	return core.New(cfg)
}

// NewBIRPOff builds the BIRP-OFF baseline (offline-profiled TIR, no tuning).
func NewBIRPOff(c *Cluster, apps []*Application, opt SchedulerOptions) (Scheduler, error) {
	opt = opt.withDefaults()
	return baseline.NewBIRPOffConfig(c, apps, opt.ProfileMaxBatch, opt.coreMod())
}

// NewOAEI builds the serial model-selection baseline.
func NewOAEI(c *Cluster, apps []*Application, opt SchedulerOptions) (Scheduler, error) {
	return baseline.NewOAEIConfig(c, apps, opt.Seed, opt.coreMod())
}

// NewMAX builds the fixed-batch baseline.
func NewMAX(c *Cluster, apps []*Application, opt SchedulerOptions) (Scheduler, error) {
	opt = opt.withDefaults()
	return baseline.NewMAXConfig(c, apps, opt.B0, opt.coreMod())
}

// Simulator runs schedulers against arrival streams on the device models.
type Simulator = edgesim.Sim

// NewSimulator builds a slot-level simulator. noiseSigma is the relative
// execution-time noise; seed drives it.
func NewSimulator(c *Cluster, apps []*Application, noiseSigma float64, seed int64) (*Simulator, error) {
	return edgesim.New(edgesim.Config{Cluster: c, Apps: apps, NoiseSigma: noiseSigma, Seed: seed})
}

// NewServeLoop builds the online serving loop.
func NewServeLoop(cfg ServeConfig) (*ServeLoop, error) { return serve.NewLoop(cfg) }

// NewServeFrontend listens on addr and serves the JSON-lines request
// protocol against loop; nowNS stamps arrivals that carry no timestamp.
func NewServeFrontend(loop *ServeLoop, addr string, nowNS func() int64) (*ServeFrontend, error) {
	return serve.NewFrontend(loop, addr, nowNS)
}

// NewServeAdmission builds an admission policy by name ("always",
// "token-bucket"); capacity/ratePerSec parameterize the token bucket.
func NewServeAdmission(name string, capacity, ratePerSec float64) (serve.AdmissionPolicy, error) {
	return serve.NewAdmission(name, capacity, ratePerSec)
}

// NewServeRouter builds a router by name ("round-robin", "least-loaded",
// "affinity").
func NewServeRouter(name string) (serve.Router, error) { return serve.NewRouter(name) }

// ServePlannerFor adapts a scheduler into the serving loop's re-optimizer.
// The core-family schedulers (NewBIRP and friends) implement the windowed
// re-solve natively — rate rescaling plus the cross-slot reuse layer; any
// other Scheduler is fed each window as the next slot's arrivals unscaled.
func ServePlannerFor(s Scheduler) ServePlanner {
	if p, ok := s.(ServePlanner); ok {
		return p
	}
	return serve.NewSlotPlanner(s)
}

// NewSchedulerServer builds the distributed prototype's coordinator.
func NewSchedulerServer(cfg ServerConfig) (*SchedulerServer, error) { return edgenet.NewServer(cfg) }

// NewEdgeAgent builds one distributed edge worker.
func NewEdgeAgent(cfg AgentConfig) (*EdgeAgent, error) { return edgenet.NewAgent(cfg) }

// Fig1 quantifies the redistribution behaviour the paper's Fig. 1 sketches.
func Fig1(w io.Writer, opt ExperimentOptions) (*experiments.Fig1Stats, error) {
	return experiments.Fig1(w, opt)
}

// Table1 regenerates the paper's Table 1 (utilization and FPS rows).
func Table1(w io.Writer) []experiments.Table1Row { return experiments.Table1(w) }

// Fig2 regenerates the paper's Fig. 2 (TIR laws with piecewise fits).
func Fig2(w io.Writer, seed int64) ([]experiments.Fig2Panel, error) {
	return experiments.Fig2(w, seed)
}

// Fig6 regenerates the small-scale comparison (paper Fig. 6).
func Fig6(w io.Writer, opt ExperimentOptions) ([]EvalResult, error) {
	return experiments.Fig6(w, opt)
}

// Fig7 regenerates the large-scale comparison (paper Fig. 7).
func Fig7(w io.Writer, opt ExperimentOptions) ([]EvalResult, error) {
	return experiments.Fig7(w, opt)
}

// Scale runs the fleet-scaling experiment: BIRP (monolithic or hierarchical
// per opt.Hierarchical/Domains/DomainSize) on a seeded Scaled(opt.K) fleet.
func Scale(w io.Writer, opt ExperimentOptions) (*experiments.ScaleResult, error) {
	return experiments.Scale(w, opt)
}

// PresetSweep regenerates the ε1/ε2 preset analysis (paper Fig. 4 and 5).
func PresetSweep(w io.Writer, opt ExperimentOptions, snapshots []int) ([]experiments.SweepPoint, error) {
	return experiments.PresetSweep(w, opt, snapshots)
}

// Convergence runs the extension experiment tracking how the online MAB
// tuner's TIR estimates approach the offline-profiled truth.
func Convergence(w io.Writer, opt ExperimentOptions) ([]experiments.ConvergencePoint, error) {
	return experiments.Convergence(w, opt)
}

// Ablations runs the four design-choice ablations DESIGN.md documents and
// returns each configuration's loss/failure outcome.
func Ablations(w io.Writer, opt ExperimentOptions) ([]experiments.AblationResult, error) {
	return experiments.Ablations(w, opt)
}

// Scorecard grades every qualitative claim of the paper's evaluation against
// measured results and prints a PASS/FAIL table.
func Scorecard(w io.Writer, opt ExperimentOptions) ([]experiments.Check, error) {
	return experiments.Scorecard(w, opt)
}

// Sensitivity sweeps workload intensity and reports loss/p% per algorithm.
func Sensitivity(w io.Writer, opt ExperimentOptions, loads []float64) ([]experiments.SensitivityPoint, error) {
	return experiments.Sensitivity(w, opt, loads)
}

// WriteComparisonCSV exports a comparison's panels as CSV files.
func WriteComparisonCSV(dir, prefix string, results []EvalResult) error {
	return experiments.WriteComparisonCSV(dir, prefix, results)
}

// WriteSweepCSV exports the Fig. 4/5 preset surfaces as CSV.
func WriteSweepCSV(dir string, points []experiments.SweepPoint, snapshots []int) error {
	return experiments.WriteSweepCSV(dir, points, snapshots)
}

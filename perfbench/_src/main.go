// Command perfbench is the repository's benchmark of BIRP's slot decision
// and serving path. It builds the program from the module's public
// functions, runs one workload for a fixed time in whole rounds, checks the
// outputs, and prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also times each layer's public entry points from this package, writes
// the spans to --trace-out, and the metrics are the per-layer ones. See
// ../README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/miqp"
)

// processStart approximates the process start when the launcher does not
// pass --start-unix: package initialization runs just before main.
var processStart = time.Now()

type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	traceOut string
	// requests overrides the serve workload's requests per round; it exists
	// to show how retained memory grows with the requests served.
	requests int
}

// outcome is what one workload run produced.
type outcome struct {
	setup     time.Duration
	attempted int64
	failed    int64
	errs      []string
	endToEnd  map[string]float64
	perLayer  map[string]float64
	tracer    *tracer
}

type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every workload with --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"slot_decide_p50_ms", "ms"},
	{"slot_decide_p90_ms", "ms"},
	{"slots_per_s", "1/s"},
	{"mean_loss", "loss/request"},
	{"requests_per_s", "1/s"},
	{"request_p50_us", "us"},
	{"retained_heap_mb", "MB"},
}

// perLayerMetrics are reported by every workload with --trace 1; a layer the
// workload does not run reads 0.
var perLayerMetrics = []metricDef{
	{"lp.pivots_per_relaxation", "pivots/relax"},
	{"lp.refactorizations_per_slot", "1/slot"},
	{"lp.factor_reuses_per_slot", "1/slot"},
	{"lp.warm_hit_ratio", "hits/attempts"},
	{"miqp.nodes_per_slot", "1/slot"},
	{"miqp.relaxations_per_slot", "1/slot"},
	{"miqp.incumbent_seeded", "1/round"},
	{"core.redistribute_ms", "ms"},
	{"core.solve_edge_ms", "ms"},
	{"core.decide_alloc_kb", "KiB"},
	{"core.replan_ms", "ms"},
	{"core.memo_hits", "1/round"},
	{"core.delta_skipped_edges", "1/round"},
	{"par.cpu_per_wall", "s/s"},
	{"bandit.observe_us", "us"},
	{"edgesim.execute_ms", "ms"},
	{"serve.submit_p99_us", "us"},
	{"serve.admit_ns", "ns"},
	{"serve.route_ns", "ns"},
	{"serve.log_write_us", "us"},
	{"serve.alloc_bytes_per_request", "B"},
	{"serve.log_bytes_per_request", "B"},
	{"serve.replans", "1/round"},
	{"serve.forced_replans", "1/round"},
	{"serve.stale_p50_ms", "ms"},
	{"metrics.stale_quantile_ms", "ms"},
}

// zeroLayers returns every per-layer metric at 0; workloads fill in the
// layers they run.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	return m
}

// solverLayers fills the lp, miqp and reuse metrics from the summed
// miqp.Stats of slots decisions over rounds rounds.
func solverLayers(layer map[string]float64, st miqp.Stats, slots, rounds int64) {
	per := func(v int, n int64) float64 { return float64(v) / float64(n) }
	layer["lp.pivots_per_relaxation"] = st.PivotsPerRelaxation()
	layer["lp.refactorizations_per_slot"] = per(st.Refactorizations, slots)
	layer["lp.factor_reuses_per_slot"] = per(st.FactorReuses, slots)
	layer["lp.warm_hit_ratio"] = st.WarmHitRate()
	layer["miqp.nodes_per_slot"] = per(st.Nodes, slots)
	layer["miqp.relaxations_per_slot"] = per(st.Relaxations, slots)
	layer["miqp.incumbent_seeded"] = per(st.IncumbentSeeded, rounds)
	layer["core.memo_hits"] = per(st.MemoHits, rounds)
	layer["core.delta_skipped_edges"] = per(st.DeltaSkippedEdges, rounds)
}

// roundSeed derives input group g's seed from the run's seed. A run cycles
// through a few groups, so it averages over several traces (and, on fleet,
// several topologies) and depends less on one draw, and it repeats each
// group, so it can keep each operation's best repeat; the same seed still
// gives the same inputs.
func roundSeed(seed, g int64) int64 { return seed*1_000_003 + g }

// The workloads. Worker counts and GOMAXPROCS are fixed per workload and
// never exceed the CPUs of the host.
func closedSpecFor(name string, nproc int) (closedSpec, bool) {
	switch name {
	case "testbed":
		// The paper's large-scale testbed, one solve worker; a day and a
		// half of slots per round, so that each slot is repeated often
		// enough for its best time to escape the host's bursts.
		return closedSpec{slots: 144, groups: 6, workers: 1, checkWorkers: nproc, checkSlots: 96}, true
	case "fleet":
		// A seeded 128-edge fleet in 16-edge domains, one solve worker per
		// CPU; half a day of slots per round.
		return closedSpec{edges: 128, domainSize: 16, slots: 48, groups: 2, workers: nproc, checkWorkers: 1, checkSlots: 4}, true
	}
	return closedSpec{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds int
	var traced int
	var startUnix string
	fs.StringVar(&o.workload, "workload", "", "workload: testbed, fleet or serve")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 10, "minimum measured time in seconds, run in whole rounds")
	fs.IntVar(&traced, "trace", 0, "1 = traced run: per-layer metrics and a span file")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of the traced run (default perfbench/out/trace-<workload>-<seed>.jsonl)")
	fs.IntVar(&o.requests, "requests", 0, "serve: requests per round (0 = 250000)")
	fs.StringVar(&startUnix, "start-unix", "", "process start as Unix seconds with a fraction (set by run.sh)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	start := processStart
	if startUnix != "" {
		f, err := strconv.ParseFloat(startUnix, 64)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: bad --start-unix %q: %v\n", startUnix, err)
			return 2
		}
		sec, frac := math.Modf(f)
		start = time.Unix(int64(sec), int64(frac*1e9))
	}
	var bad []error
	if seconds < 1 {
		bad = append(bad, fmt.Errorf("--seconds %d: must be >= 1", seconds))
	}
	if traced != 0 && traced != 1 {
		bad = append(bad, fmt.Errorf("--trace %d: must be 0 or 1", traced))
	}
	if o.requests < 0 {
		bad = append(bad, fmt.Errorf("--requests %d: must be >= 0", o.requests))
	}
	nproc := runtime.NumCPU()
	spec, closed := closedSpecFor(o.workload, nproc)
	if !closed && o.workload != "serve" {
		bad = append(bad, fmt.Errorf("--workload %q: want testbed, fleet or serve", o.workload))
	}
	if err := errors.Join(bad...); err != nil {
		fmt.Fprintf(stderr, "perfbench: invalid flags:\n%v\n", err)
		return 2
	}
	o.duration = time.Duration(seconds) * time.Second
	o.trace = traced == 1
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf("perfbench/out/trace-%s-%d.jsonl", o.workload, o.seed)
	}

	// Fixed runtime settings, whatever the environment says.
	runtime.GOMAXPROCS(nproc)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)

	var out *outcome
	var err error
	if closed {
		out, err = runClosed(spec, o, start)
	} else {
		out, err = runServe(o, start)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	out.endToEnd["setup_s"] = out.setup.Seconds()
	for _, e := range out.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	res := result{Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEndMetrics, out.endToEnd
	if o.trace {
		defs, vals = perLayerMetrics, out.perLayer
		if err := out.tracer.write(o.traceOut); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if b, err := json.Marshal(out.endToEnd); err == nil {
			fmt.Fprintf(stderr, "perfbench: traced end-to-end %s\n", b)
		}
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s has no finite value (%v)\n", d.name, v)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// baselineHeap returns the live heap before a workload builds its program,
// after a forced collection, and how long taking the reading took (set-up
// time excludes it).
func baselineHeap() (uint64, time.Duration) {
	start := time.Now()
	collect()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, time.Since(start)
}

// retainedMB is the live heap above base after a forced collection, in MB.
func retainedMB(base uint64) float64 {
	collect()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (float64(m.HeapAlloc) - float64(base)) / 1e6
}

// collect runs two full collections: the first moves sync.Pool contents to
// the pools' victim caches, the second frees them, so the heap that remains
// is what the program references rather than what its caches happened to
// hold at the time.
func collect() {
	runtime.GC()
	runtime.GC()
}

// offHeapInt64 maps an anonymous buffer outside the Go heap, so a large
// sample buffer changes neither the collector's pacing nor the heap
// readings of the program under test. It lives until the process exits.
func offHeapInt64(n int) ([]int64, error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("sample buffer: %w", err)
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
}

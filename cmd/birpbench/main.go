// Command birpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	birpbench -exp table1,fig2,fig4,fig5,fig6,fig7   # or "all"
//	birpbench -exp fig7 -slots 300 -seed 1
//
// Every experiment prints the rows/series the paper reports; EXPERIMENTS.md
// records a captured run against the paper's numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	birp "repro"
	"repro/internal/cliutil"
)

// knownExps is the -exp vocabulary; an unknown name is an error, not a
// silent no-op run (a typo like "fig77" used to run nothing and exit 0).
var knownExps = map[string]bool{
	"all": true, "fig1": true, "table1": true, "fig2": true, "fig4": true,
	"fig5": true, "fig6": true, "fig7": true, "convergence": true,
	"ablations": true, "scorecard": true, "sensitivity": true, "scale": true,
}

// timingReport is the machine-readable output of -json: per-experiment
// wall-clock seconds plus the knobs that shaped the run, so serial and
// parallel runs can be compared mechanically.
type timingReport struct {
	Workers    int         `json:"workers"`
	Slots      int         `json:"slots"`
	Seed       int64       `json:"seed"`
	Quick      bool        `json:"quick"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Timings    []expTiming `json:"timings"`
	// Solver carries the cumulative MIQP engine counters per
	// "experiment/arm" (BIRP-family arms only), so bench harnesses can
	// track relaxation counts and warm-start hit rates mechanically.
	Solver map[string]birp.SolverStats `json:"solver,omitempty"`
	// Scale carries the fleet-scaling experiment's quality outcome (-exp
	// scale), which the text tables don't expose mechanically.
	Scale *scaleSummary `json:"scale,omitempty"`
}

// scaleSummary is the JSON shape of one -exp scale run.
type scaleSummary struct {
	K            int     `json:"k"`
	Hierarchical bool    `json:"hierarchical"`
	Domains      int     `json:"domains"`
	Slots        int     `json:"slots"`
	TotalLoss    float64 `json:"total_loss"`
	FailureRate  float64 `json:"failure_rate"`
	Served       int     `json:"served"`
	Dropped      int     `json:"dropped"`
	Violations   int     `json:"violations"`
}

type expTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: fig1,table1,fig2,fig4,fig5,fig6,fig7,convergence,ablations,scorecard,sensitivity,scale (scale is opt-in, not in \"all\")")
	slots := flag.Int("slots", 300, "evaluation horizon in slots")
	seed := flag.Int64("seed", 1, "trace and noise seed")
	quick := flag.Bool("quick", false, "reduced sizes (fast smoke run)")
	csvDir := flag.String("csv", "", "also export figure series as CSV files to this directory")
	workers := flag.Int("workers", 0, "solve/sweep parallelism (0 = one worker per CPU, 1 = serial); results are identical for every value")
	jsonPath := flag.String("json", "", "write machine-readable per-experiment timings (JSON) to this file")
	solverStats := flag.Bool("solverstats", false, "print cumulative MIQP solver counters (nodes, warm-start hit rate, pivots, presolve reductions) after fig6/fig7")
	pprofPath := flag.String("pprof", "", "write a CPU profile of the whole run to this file")
	profileKind := flag.String("profile", "", "write per-experiment profiles: cpu, heap, or allocs (one <exp>.<kind>.pprof per experiment; see -profdir; read with go tool pprof -top)")
	profDir := flag.String("profdir", ".", "directory for -profile output files")
	noReuse := flag.Bool("noreuse", false, "disable cross-slot solver reuse (incumbent seeding, plan memoization, the stage-1 basis carry); every slot solves cold — for A/B measurement")
	k := flag.Int("k", 50, "fleet size for -exp scale (seeded synthetic fleet)")
	hier := flag.Bool("hier", false, "hierarchical domain-decomposed scheduling for the core-family arms (default domain size 16)")
	domains := flag.Int("domains", 0, "fix the collaboration-domain count (> 0 implies -hier)")
	flag.Parse()

	check := &cliutil.Checker{}
	check.KnownNames("exp", *exp, knownExps)
	check.PositiveInt("slots", *slots)
	check.NonNegativeInt("workers", *workers)
	check.PositiveInt("k", *k)
	check.NonNegativeInt("domains", *domains)
	if *profileKind != "" {
		check.OneOf("profile", *profileKind, "cpu", "heap", "allocs")
		check.Checkf(*pprofPath == "", "-profile and -pprof are mutually exclusive (only one CPU profile can be active)")
	}
	if err := check.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *pprofPath != "" {
		f, err := os.Create(*pprofPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	opt := birp.ExperimentOptions{
		Seed: *seed, Slots: *slots, Quick: *quick, Workers: *workers,
		DisableSlotReuse: *noReuse, Hierarchical: *hier, Domains: *domains, K: *k,
	}
	report := timingReport{
		Workers: *workers, Slots: *slots, Seed: *seed, Quick: *quick,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Solver:     map[string]birp.SolverStats{},
	}
	noteSolver := func(exp string, results []birp.EvalResult) {
		for _, r := range results {
			if r.Solver != nil {
				report.Solver[exp+"/"+r.Name] = *r.Solver
			}
		}
	}
	run := func(name string, f func() error) {
		if !all && !want[name] {
			return
		}
		if *profileKind != "" {
			f = profiled(*profileKind, *profDir, name, f)
		}
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		//birplint:ignore dettaint // Timings IS wall-clock telemetry by design; the identity checks compare node counts and plans, never timings
		report.Timings = append(report.Timings, expTiming{Name: name, Seconds: elapsed.Seconds()})
		fmt.Printf("[%s completed in %v]\n\n", name, elapsed.Round(time.Millisecond))
	}

	run("fig1", func() error { _, err := birp.Fig1(os.Stdout, opt); return err })
	run("table1", func() error { birp.Table1(os.Stdout); return nil })
	run("fig2", func() error { _, err := birp.Fig2(os.Stdout, *seed); return err })
	run("fig4", func() error {
		// Fig. 4 and 5 come from one sweep; snapshots per the paper.
		pts, err := birp.PresetSweep(os.Stdout, opt, snapshots(*slots))
		if err != nil {
			return err
		}
		if *csvDir != "" {
			return birp.WriteSweepCSV(*csvDir, pts, snapshots(*slots))
		}
		return nil
	})
	if !all && want["fig5"] && !want["fig4"] {
		run("fig5", func() error {
			_, err := birp.PresetSweep(os.Stdout, opt, snapshots(*slots))
			return err
		})
	}
	run("fig6", func() error {
		results, err := birp.Fig6(os.Stdout, opt)
		if err != nil {
			return err
		}
		summarize(results)
		noteSolver("fig6", results)
		if *solverStats {
			printSolverStats(results)
		}
		if *csvDir != "" {
			return birp.WriteComparisonCSV(*csvDir, "fig6", results)
		}
		return nil
	})
	run("sensitivity", func() error {
		_, err := birp.Sensitivity(os.Stdout, opt, nil)
		return err
	})
	run("scorecard", func() error {
		_, err := birp.Scorecard(os.Stdout, opt)
		return err
	})
	run("ablations", func() error {
		_, err := birp.Ablations(os.Stdout, opt)
		return err
	})
	run("convergence", func() error {
		_, err := birp.Convergence(os.Stdout, opt)
		return err
	})
	// scale is opt-in only (not part of "all"): large fleets at the default
	// 300-slot horizon would dominate the suite's runtime.
	runScale := func() error {
		res, err := birp.Scale(os.Stdout, opt)
		if err != nil {
			return err
		}
		report.Scale = &scaleSummary{
			K: res.K, Hierarchical: res.Hierarchical, Domains: res.Domains,
			Slots: res.Slots, TotalLoss: res.TotalLoss, FailureRate: res.FailureRate,
			Served: res.Served, Dropped: res.Dropped, Violations: res.Violations,
		}
		if res.Solver != nil {
			report.Solver["scale/BIRP"] = *res.Solver
		}
		return nil
	}
	if want["scale"] {
		if *profileKind != "" {
			runScale = profiled(*profileKind, *profDir, "scale", runScale)
		}
		start := time.Now()
		if err := runScale(); err != nil {
			fmt.Fprintf(os.Stderr, "scale: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		//birplint:ignore dettaint // Timings IS wall-clock telemetry by design; the identity checks compare node counts and plans, never timings
		report.Timings = append(report.Timings, expTiming{Name: "scale", Seconds: elapsed.Seconds()})
		fmt.Printf("[scale completed in %v]\n\n", elapsed.Round(time.Millisecond))
	}
	run("fig7", func() error {
		results, err := birp.Fig7(os.Stdout, opt)
		if err != nil {
			return err
		}
		summarize(results)
		noteSolver("fig7", results)
		if *solverStats {
			printSolverStats(results)
		}
		if *csvDir != "" {
			return birp.WriteComparisonCSV(*csvDir, "fig7", results)
		}
		return nil
	})

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "timings: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "timings: %v\n", err)
			os.Exit(1)
		}
	}
}

// profiled wraps one experiment with profile capture, writing
// <dir>/<name>.<kind>.pprof. CPU profiles bracket the experiment;
// heap/allocs profiles are written after it returns and a GC ("heap" then
// shows live retention rather than collectable garbage; "allocs" reports
// every sampled allocation since process start, which attributes
// steady-state churn to its allocation sites). The GC matters for "allocs"
// too: the runtime publishes allocation samples only when a GC cycle
// completes, so without it the profile would miss whatever the experiment
// allocated after its last cycle. Read them with
// `go tool pprof -top <file>` (add -sample_index=alloc_space for allocs).
func profiled(kind, dir, name string, f func() error) func() error {
	return func() error {
		path := fmt.Sprintf("%s/%s.%s.pprof", dir, name, kind)
		switch kind {
		case "cpu":
			out, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(out); err != nil {
				out.Close()
				return err
			}
			err = f()
			pprof.StopCPUProfile()
			if cerr := out.Close(); err == nil {
				err = cerr
			}
			return err
		case "heap", "allocs":
			if err := f(); err != nil {
				return err
			}
			runtime.GC()
			out, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := pprof.Lookup(kind).WriteTo(out, 0); err != nil {
				out.Close()
				return err
			}
			return out.Close()
		}
		return f()
	}
}

func snapshots(slots int) []int {
	out := []int{}
	for _, t := range []int{10, 100, 300} {
		if t <= slots {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = []int{slots}
	}
	return out
}

func summarize(results []birp.EvalResult) {
	fmt.Println("headline summary:")
	for _, r := range results {
		fmt.Printf("  %-9s total loss %10.0f   p%% %6.2f%%   dropped %d\n",
			r.Name, r.TotalLoss(), 100*r.FailureRate, r.Dropped)
	}
	if b, o := find(results, "BIRP"), find(results, "OAEI"); b != nil && o != nil && o.TotalLoss() > 0 {
		fmt.Printf("  BIRP vs OAEI: loss %+.1f%%, SLO-failure ratio %.1f%% (paper: -32.9%% and 19.8%%)\n",
			100*(b.TotalLoss()/o.TotalLoss()-1), 100*b.FailureRate/o.FailureRate)
	}
	fmt.Println()
}

// printSolverStats reports the MIQP engine counters for the arms that expose
// them (the core BIRP family; the baselines have no exact solver).
func printSolverStats(results []birp.EvalResult) {
	fmt.Println("solver stats (cumulative over run):")
	for _, r := range results {
		if r.Solver == nil {
			continue
		}
		fmt.Printf("  %-9s %s\n", r.Name, r.Solver)
	}
	fmt.Println()
}

func find(results []birp.EvalResult, name string) *birp.EvalResult {
	for i := range results {
		if results[i].Name == name {
			return &results[i]
		}
	}
	return nil
}

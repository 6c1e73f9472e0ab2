// Command birpserve is the online serving daemon: a continuous request
// stream passes token-bucket admission and a pluggable router dispatching
// against an immutable snapshot of the last BIRP plan, while the slot
// optimizer re-solves over the rolling arrival window in the background
// and atomically swaps the snapshot.
//
// Two modes:
//
//	birpserve -gen 10000 -policy token-bucket -rate 8 -log decisions.log
//	    replay: generate a scripted request stream from the synthetic
//	    trace and drive it through the loop on the virtual clock —
//	    fully deterministic, byte-identical decision log for every
//	    -workers value.
//
//	birpserve -listen 127.0.0.1:7800
//	    daemon: serve the JSON-lines TCP protocol ({"id","app","region"}
//	    per line in, {"id","admit","edge","reason"} per line out) until
//	    SIGINT/SIGTERM; a background re-optimizer keeps snapshots fresh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	birp "repro"
	"repro/internal/cliutil"
)

// serveOutput is the machine-readable counters summary (-json). All
// staleness figures are virtual-clock milliseconds. The stale percentiles
// come from metrics.ServeStats' fixed histogram: each is the upper edge of
// the bucket holding the nearest-rank sample, never below the exact value
// and less than 1/64 above it; StaleMaxMS is exact. WallSeconds and
// AdmittedPerSec are wall-clock pipeline throughput, reported for bench
// trending only — no decision depends on them.
type serveOutput struct {
	Mode             string           `json:"mode"`
	Workers          int              `json:"workers"`
	Seed             int64            `json:"seed"`
	Policy           string           `json:"policy"`
	Route            string           `json:"route"`
	Submitted        int64            `json:"submitted"`
	Admitted         int64            `json:"admitted"`
	Rejected         int64            `json:"rejected"`
	RejectedByReason map[string]int64 `json:"rejected_by_reason,omitempty"`
	RoutedByEdge     []int64          `json:"routed_by_edge"`
	Replans          int64            `json:"replans"`
	ForcedReplans    int64            `json:"forced_replans"`
	StaleP50MS       float64          `json:"stale_p50_ms"`
	StaleP90MS       float64          `json:"stale_p90_ms"`
	StaleP99MS       float64          `json:"stale_p99_ms"`
	StaleMaxMS       float64          `json:"stale_max_ms"`
	StaleBoundMS     float64          `json:"stale_bound_ms"`
	WallSeconds      float64          `json:"wall_seconds"`
	AdmittedPerSec   float64          `json:"admitted_per_sec"`
}

func main() {
	listen := flag.String("listen", "", "daemon mode: serve the JSON-lines TCP protocol on this address (empty = replay mode)")
	gen := flag.Int("gen", 10000, "replay mode: number of scripted requests to generate from the synthetic trace")
	seed := flag.Int64("seed", 1, "workload seed")
	small := flag.Bool("small", true, "use the 3-edge small-scale cluster (false = the 6-edge testbed)")
	apps := flag.Int("apps", 2, "number of applications")
	versions := flag.Int("versions", 3, "model versions per application")
	policy := flag.String("policy", "always", "admission policy: always or token-bucket")
	capacity := flag.Float64("cap", 64, "token-bucket burst capacity in tokens (>= 1)")
	rate := flag.Float64("rate", 32, "token-bucket refill rate in tokens per virtual second (> 0)")
	route := flag.String("route", "round-robin", "router: round-robin, least-loaded, or affinity")
	reoptMS := flag.Int("reopt-ms", 0, "re-optimization cadence in virtual ms (0 = one slot)")
	staleMS := flag.Int("stale-ms", 0, "snapshot staleness bound in virtual ms (0 = 2x the cadence); a decision about to exceed it forces a synchronous re-solve")
	workers := flag.Int("workers", 0, "planner solve parallelism (0 = one worker per CPU); decisions are identical for every value")
	noReuse := flag.Bool("noreuse", false, "disable cross-slot solver reuse; every re-optimization solves cold")
	logPath := flag.String("log", "", "write the canonical decision log to this file")
	jsonPath := flag.String("json", "", "write machine-readable counters (JSON) to this file")
	flag.Parse()

	check := &cliutil.Checker{}
	check.OneOf("policy", *policy, "always", "token-bucket")
	check.OneOf("route", *route, "round-robin", "least-loaded", "affinity")
	check.PositiveInt("apps", *apps)
	check.PositiveInt("versions", *versions)
	check.NonNegativeInt("workers", *workers)
	check.NonNegativeInt("reopt-ms", *reoptMS)
	check.NonNegativeInt("stale-ms", *staleMS)
	if *policy == "token-bucket" {
		check.Checkf(*capacity >= 1, "-cap %g: must be >= 1", *capacity)
		check.PositiveFloat("rate", *rate)
	}
	if *listen == "" {
		check.PositiveInt("gen", *gen)
	}
	if err := check.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	c := birp.DefaultCluster()
	if *small {
		c = birp.SmallCluster()
	}
	catalogue := birp.Catalogue(*apps, *versions)
	sched, err := birp.NewBIRP(c, catalogue, birp.SchedulerOptions{
		Workers: *workers, DisableSlotReuse: *noReuse,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	slotNS := int64(c.SlotMS()) * 1e6
	reoptNS := int64(*reoptMS) * 1e6
	if reoptNS == 0 {
		reoptNS = slotNS
	}
	var logFile *os.File
	if *logPath != "" {
		logFile, err = os.Create(*logPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer logFile.Close()
	}
	cfg := birp.ServeConfig{
		Apps: *apps, Edges: c.N(),
		Planner:      birp.ServePlannerFor(sched),
		ReoptEveryNS: reoptNS,
		MaxStaleNS:   int64(*staleMS) * 1e6,
	}
	if logFile != nil {
		cfg.Log = logFile
	}
	if cfg.Admission, err = birp.NewServeAdmission(*policy, *capacity, *rate); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if cfg.Router, err = birp.NewServeRouter(*route); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	loop, err := birp.NewServeLoop(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	boundNS := int64(*staleMS) * 1e6
	if boundNS == 0 {
		boundNS = 2 * reoptNS
	}
	mode := "replay"
	start := time.Now()
	if *listen == "" {
		script, err := genScript(c.N(), *apps, *seed, slotNS, *gen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := loop.Replay(script); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		mode = "daemon"
		if err := runDaemon(loop, *listen, reoptNS); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	wall := time.Since(start).Seconds()

	stats := loop.Stats()
	out := serveOutput{
		Mode: mode, Workers: *workers, Seed: *seed, Policy: *policy, Route: *route,
		Submitted: stats.Submitted, Admitted: stats.Admitted, Rejected: stats.RejectedTotal(),
		RejectedByReason: stats.Rejected, RoutedByEdge: stats.RoutedByEdge,
		Replans: stats.Replans, ForcedReplans: stats.ForcedReplans,
		StaleP50MS:   float64(stats.StaleQuantileNS(0.5)) / 1e6,
		StaleP90MS:   float64(stats.StaleQuantileNS(0.9)) / 1e6,
		StaleP99MS:   float64(stats.StaleQuantileNS(0.99)) / 1e6,
		StaleMaxMS:   float64(stats.MaxStaleNS) / 1e6,
		StaleBoundMS: float64(boundNS) / 1e6,
		WallSeconds:  wall,
	}
	if wall > 0 {
		out.AdmittedPerSec = float64(stats.Admitted) / wall
	}
	fmt.Printf("%s: %s\n", mode, stats)
	if stats.Submitted != stats.Admitted+stats.RejectedTotal() {
		fmt.Fprintf(os.Stderr, "accounting violation: submitted %d != admitted %d + rejected %d\n",
			stats.Submitted, stats.Admitted, stats.RejectedTotal())
		os.Exit(1)
	}
	if mode == "replay" && stats.MaxStaleNS > boundNS {
		fmt.Fprintf(os.Stderr, "staleness violation: max %.1fms > bound %.1fms\n",
			float64(stats.MaxStaleNS)/1e6, float64(boundNS)/1e6)
		os.Exit(1)
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// genScript builds a deterministic request script from the synthetic trace
// generator: slot t's arrivals for (app i, edge k) are spread evenly over
// the slot's virtual duration in (i, k) order, so the stream is
// non-decreasing in time and identical for a given seed. The trace wraps
// if n exceeds one generation.
func genScript(edges, apps int, seed, slotNS int64, n int) ([]birp.ServeRequest, error) {
	tcfg := birp.DefaultTraceConfig()
	tcfg.Apps = apps
	tcfg.Edges = edges
	tcfg.Seed = seed
	tr, err := birp.GenerateTrace(tcfg)
	if err != nil {
		return nil, err
	}
	script := make([]birp.ServeRequest, 0, n)
	id := int64(0)
	for t := 0; len(script) < n; t++ {
		slot := tr.R[t%tr.Slots]
		total := 0
		for i := range slot {
			for _, v := range slot[i] {
				total += v
			}
		}
		if total == 0 {
			if t > tr.Slots && id == 0 {
				return nil, fmt.Errorf("birpserve: trace generated no arrivals")
			}
			continue
		}
		j := 0
		for i := range slot {
			for k, v := range slot[i] {
				for q := 0; q < v; q++ {
					if len(script) >= n {
						return script, nil
					}
					script = append(script, birp.ServeRequest{
						ID: id, App: i, Region: k,
						ArriveNS: int64(t)*slotNS + int64(j)*slotNS/int64(total),
					})
					id++
					j++
				}
			}
		}
	}
	return script, nil
}

// runDaemon serves the TCP protocol until SIGINT/SIGTERM. Wall time is
// mapped onto the virtual clock once at the process edge (nanoseconds
// since daemon start); a background re-optimizer ticks the loop so
// snapshots stay fresh even when no requests arrive.
func runDaemon(loop *birp.ServeLoop, addr string, reoptNS int64) error {
	epoch := time.Now()
	now := func() int64 { return time.Since(epoch).Nanoseconds() }
	fe, err := birp.NewServeFrontend(loop, addr, now)
	if err != nil {
		return err
	}
	fmt.Printf("serving on %s (SIGINT for clean shutdown)\n", fe.Addr())

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Duration(reoptNS) * time.Nanosecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				//birplint:ignore sharedwrite // Loop is concurrency-safe by contract: Tick and the frontend's Decide serialize on the loop's internal mutex
				if err := loop.Tick(now()); err != nil {
					fmt.Fprintf(os.Stderr, "replan: %v\n", err)
				}
			}
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	<-sigc
	signal.Stop(sigc)
	close(stop)
	<-done
	if err := fe.Close(); err != nil {
		return err
	}
	return loop.Flush()
}

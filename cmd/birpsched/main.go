// Command birpsched runs the distributed prototype's scheduler server: it
// waits for one birpedge agent per edge, then drives the BIRP slot protocol.
//
// Usage:
//
//	birpsched -listen 127.0.0.1:7700 -small -apps 1 -versions 3 -slots 50
//
// Start the matching agents with cmd/birpedge (edge ids 0..N-1).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	birp "repro"
	"repro/internal/cliutil"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7700", "TCP listen address")
	small := flag.Bool("small", true, "use the 3-edge small-scale cluster")
	apps := flag.Int("apps", 1, "number of applications")
	versions := flag.Int("versions", 3, "model versions per application")
	slots := flag.Int("slots", 50, "slots to schedule")
	tolerate := flag.Bool("tolerate", false, "survive agent failures: mark dead edges down, let restarted agents rejoin")
	noReuse := flag.Bool("noreuse", false, "disable cross-slot solver reuse (incumbent seeding, plan memoization, the stage-1 basis carry); every slot solves cold")
	hier := flag.Bool("hier", false, "hierarchical domain-decomposed scheduling (default domain size 16)")
	domains := flag.Int("domains", 0, "fix the collaboration-domain count (> 0 implies -hier)")
	flag.Parse()

	check := &cliutil.Checker{}
	check.PositiveInt("apps", *apps)
	check.PositiveInt("versions", *versions)
	check.PositiveInt("slots", *slots)
	check.NonNegativeInt("domains", *domains)
	if err := check.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	c := birp.DefaultCluster()
	if *small {
		c = birp.SmallCluster()
	}
	catalogue := birp.Catalogue(*apps, *versions)
	schedOpt := birp.SchedulerOptions{DisableSlotReuse: *noReuse, Domains: *domains}
	if *hier && *domains == 0 {
		schedOpt.DomainSize = 16
	}
	sched, err := birp.NewBIRP(c, catalogue, schedOpt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv, err := birp.NewSchedulerServer(birp.ServerConfig{
		Listen: *listen, Cluster: c, Apps: catalogue,
		Scheduler: sched, Slots: *slots,
		TolerateFailures: *tolerate,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("scheduler listening on %s; waiting for %d edge agents\n", srv.Addr(), c.N())
	rep, err := srv.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("done: served %d requests (dropped %d), total loss %.1f, p%% %.2f%%\n",
		rep.Served, rep.Dropped, rep.Loss.Total(), 100*rep.FailureRate())
	if len(rep.FailedEdges) > 0 {
		fmt.Printf("failed edges %v, rejoined %v\n", rep.FailedEdges, rep.RejoinedEdges)
		for _, k := range rep.FailedEdges {
			fmt.Printf("  edge %d: down %d/%d slots, served %d requests\n",
				k, rep.DownSlots[k], *slots, rep.ServedByEdge[k])
		}
	}
}

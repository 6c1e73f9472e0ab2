package edgenet

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/models"
	"repro/internal/trace"
)

// waitNoLeak polls until the goroutine count returns to the baseline — the
// shutdown path claims every parked reader has been joined, not abandoned.
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseUnblocksStalledRegistration is the shutdown-race regression: a
// client that connects during registration but never sends its hello used to
// park the accept loop in a blocking read until the SlotTimeout deadline —
// an external Close released the listener but not that read, so Run stayed
// wedged for up to 30s. Close must sever pending hello reads so Run returns
// promptly.
func TestCloseUnblocksStalledRegistration(t *testing.T) {
	base := runtime.NumGoroutine()
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	sched, err := core.New(core.Config{Cluster: c, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: 2,
		SlotTimeout: 30 * time.Second, // long enough that waiting it out fails the test
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	stall, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	// Let register() accept the conn and park in the hello read.
	time.Sleep(200 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run succeeded with no registered agents")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still blocked 5s after Close — the stalled hello read was not severed")
	}
	// Close is idempotent: post-Run and repeated calls stay nil instead of
	// surfacing "use of closed network connection".
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	waitNoLeak(t, base)
}

func TestCloseBeforeRunIsIdempotent(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	sched, err := core.New(core.Config{Cluster: c, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps, Scheduler: sched, Slots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestRunReapsStrayMidRunConn covers the rejoin-path half of the shutdown
// sweep: a connection that arrives mid-run and never completes its hello is
// parked in acceptRejoins' vet read. When the run ends, cleanup must sever
// it and join its goroutine instead of waiting out the read deadline.
func TestRunReapsStrayMidRunConn(t *testing.T) {
	base := runtime.NumGoroutine()
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	slots := 3
	tr, err := trace.Generate(trace.Config{
		Apps: 1, Edges: c.N(), Slots: slots, Seed: 11, MeanPerSlot: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.New(core.Config{Cluster: c, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	var strayOnce sync.Once
	var stray net.Conn
	var srv *Server
	srv, err = NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: slots, SlotTimeout: 10 * time.Second,
		// PlanHook fires after registration, mid-run: the perfect moment to
		// plant a stray half-open conn on the rejoin listener.
		PlanHook: func(tt int, plan *edgesim.Plan) {
			strayOnce.Do(func() {
				conn, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					t.Errorf("stray dial: %v", err)
					return
				}
				stray = conn
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := runSystem(t, srv, c, apps, tr, slots, 0)
	if rep.Served == 0 {
		t.Fatal("nothing served")
	}
	// The server must have let go of the stray without the client closing.
	waitNoLeak(t, base)
	if stray != nil {
		stray.Close()
	}
}

// TestAgentsLeaveAfterFinalReport pins the in-band session end. An agent
// that did not know which assignment was the last one used to report it, loop,
// and write the next slot's arrivals while Run broadcast a goodbye and closed
// every conn; on more than one CPU that write hit a closed socket ("broken
// pipe") and failed an agent whose run had succeeded. Here every agent talks
// through a proxy that delays each scheduler→agent frame, so an agent always
// finishes its final report long before anything the scheduler sends after
// it could arrive. A trailing arrivals frame (or a goodbye) is then certain
// to cross the proxy, and the exact frame counts catch it on every run
// instead of by timing luck.
func TestAgentsLeaveAfterFinalReport(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	sched, err := core.New(core.Config{Cluster: c, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	const slots = 4
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: slots, SlotTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewFaultProxy("127.0.0.1:0", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetDelay(Downstream, 20*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	K := c.N()
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		arr := make([][]int, slots+1) // one slot more than the run: nothing may ask for it
		for tt := range arr {
			arr[tt] = []int{3}
		}
		agent, err := NewAgent(AgentConfig{
			Addr: proxy.Addr().String(), EdgeID: k,
			Device: c.Edges[k].Device, Apps: apps, Arrivals: arr, Seed: int64(k),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(k int, agent *Agent) {
			defer wg.Done()
			if err := agent.Run(ctx); err != nil {
				t.Errorf("agent %d: %v", k, err)
			}
		}(k, agent)
	}
	rep, err := srv.Run(ctx)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	if len(rep.FailedEdges) != 0 || rep.Loss.Slots() != slots {
		t.Fatalf("failed edges %v, loss over %d slots; want none and %d", rep.FailedEdges, rep.Loss.Slots(), slots)
	}
	// Per agent: hello plus (arrivals, report) per slot upstream; resync plus
	// one assignment per slot downstream. Anything more is traffic after the
	// session ended.
	if got, want := proxy.Frames(Upstream), K*(1+2*slots); got != want {
		t.Errorf("agents sent %d frames, want %d: traffic after the final report", got, want)
	}
	if got, want := proxy.Frames(Downstream), K*(1+slots); got != want {
		t.Errorf("scheduler sent %d frames, want %d: traffic after the final assignment", got, want)
	}
}

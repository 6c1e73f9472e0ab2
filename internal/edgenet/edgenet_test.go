package edgenet

import (
	"bytes"
	"context"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/models"
	"repro/internal/trace"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type: TypeAssign, EdgeID: 2, Slot: 7,
		Assignments: []Assignment{{App: 1, Version: 2, Requests: 5, BatchSizes: []int{3, 2}}},
		Dropped:     []int{0, 1},
	}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.EdgeID != 2 || out.Slot != 7 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if len(out.Assignments) != 1 || out.Assignments[0].BatchSizes[1] != 2 {
		t.Fatalf("assignments mismatch: %+v", out.Assignments)
	}
}

func TestReadMessageRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
}

func TestReadMessageRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("{{{")
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("garbage JSON must be rejected")
	}
}

func TestReadMessageShortFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10})
	buf.WriteString("short")
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("truncated frame must error")
	}
}

// startSystem boots a server plus one agent per edge and returns the report.
func startSystem(t *testing.T, c *cluster.Cluster, apps []*models.Application, sched edgesim.Scheduler, tr *trace.Trace, slots int, sigma float64) *Report {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: slots, SlotTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return runSystem(t, srv, c, apps, tr, slots, sigma)
}

// runSystem drives a prebuilt server with one well-behaved agent per edge.
func runSystem(t *testing.T, srv *Server, c *cluster.Cluster, apps []*models.Application, tr *trace.Trace, slots int, sigma float64) *Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wait := startAgents(t, ctx, srv, c, apps, tr, slots, sigma)
	rep, err := srv.Run(ctx)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wait()
	return rep
}

// runSystemAfter is runSystem with a misbehaving client going first: Run
// starts, first runs to completion while registration still waits for the
// fleet (so its hello is vetted by registration, deterministically), and only
// then do the agents start. Racing the client against the agents instead
// could let a short run finish and close the listener with the client's
// connection still queued — a reset, not the rejection under test.
func runSystemAfter(t *testing.T, srv *Server, c *cluster.Cluster, apps []*models.Application, tr *trace.Trace, slots int, first func(ctx context.Context)) *Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type result struct {
		rep *Report
		err error
	}
	runDone := make(chan result, 1)
	go func() {
		rep, err := srv.Run(ctx)
		runDone <- result{rep, err}
	}()
	first(ctx)
	wait := startAgents(t, ctx, srv, c, apps, tr, slots, 0)
	res := <-runDone
	wait()
	if res.err != nil {
		t.Fatalf("server: %v", res.err)
	}
	return res.rep
}

// startAgents launches one agent per edge, each replaying its column of tr,
// and returns a func that waits for all of them and fails the test on any
// agent error.
func startAgents(t *testing.T, ctx context.Context, srv *Server, c *cluster.Cluster, apps []*models.Application, tr *trace.Trace, slots int, sigma float64) func() {
	t.Helper()
	var wg sync.WaitGroup
	agentErrs := make([]error, c.N())
	for k := 0; k < c.N(); k++ {
		arr := make([][]int, slots)
		for tt := 0; tt < slots; tt++ {
			arr[tt] = make([]int, len(apps))
			for i := range apps {
				arr[tt][i] = tr.R[tt][i][k]
			}
		}
		agent, err := NewAgent(AgentConfig{
			Addr: srv.Addr().String(), EdgeID: k,
			Device: c.Edges[k].Device, Apps: apps,
			Arrivals: arr, NoiseSigma: sigma, Seed: int64(100 + k),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			agentErrs[k] = agent.Run(ctx)
		}(k)
	}
	return func() {
		t.Helper()
		wg.Wait()
		for k, err := range agentErrs {
			if err != nil {
				t.Fatalf("agent %d: %v", k, err)
			}
		}
	}
}

func TestDistributedRunMatchesSimulator(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	slots := 6
	tr, err := trace.Generate(trace.Config{
		Apps: 1, Edges: c.N(), Slots: slots, Seed: 5, MeanPerSlot: 20, Imbalance: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}

	mk := func() edgesim.Scheduler {
		s, err := core.New(core.Config{Cluster: c, Apps: apps})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Deterministic execution (sigma 0) must make the TCP prototype and the
	// in-process simulator agree exactly: same scheduler, same arrivals,
	// same executor.
	rep := startSystem(t, c, apps, mk(), tr, slots, 0)

	sim, err := edgesim.New(edgesim.Config{Cluster: c, Apps: apps, NoiseSigma: 0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(mk(), tr.R)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Served != simRes.Served {
		t.Fatalf("served: net %d vs sim %d", rep.Served, simRes.Served)
	}
	if rep.Dropped != simRes.Dropped {
		t.Fatalf("dropped: net %d vs sim %d", rep.Dropped, simRes.Dropped)
	}
	if math.Abs(rep.Loss.Total()-simRes.Loss.Total()) > 1e-9 {
		t.Fatalf("loss: net %v vs sim %v", rep.Loss.Total(), simRes.Loss.Total())
	}
	a := append([]float64(nil), rep.Completion...)
	b := append([]float64(nil), simRes.Completion...)
	sort.Float64s(a)
	sort.Float64s(b)
	if len(a) != len(b) {
		t.Fatalf("completion counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("completion[%d]: net %v vs sim %v", i, a[i], b[i])
		}
	}
}

func TestDistributedRunWithNoise(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	slots := 4
	tr, _ := trace.Generate(trace.Config{
		Apps: 1, Edges: c.N(), Slots: slots, Seed: 7, MeanPerSlot: 15, Imbalance: 0.5,
	})
	s, err := core.New(core.Config{Cluster: c, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	rep := startSystem(t, c, apps, s, tr, slots, 0.05)
	if rep.Served == 0 {
		t.Fatal("nothing served")
	}
	if rep.Loss.Slots() != slots {
		t.Fatalf("loss slots = %d, want %d", rep.Loss.Slots(), slots)
	}
	if fr := rep.FailureRate(); fr < 0 || fr > 1 {
		t.Fatalf("failure rate %v", fr)
	}
}

func TestServerValidation(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	s, _ := core.New(core.Config{Cluster: c, Apps: apps})
	cases := []ServerConfig{
		{Listen: "127.0.0.1:0", Apps: apps, Scheduler: s, Slots: 1},
		{Listen: "127.0.0.1:0", Cluster: c, Scheduler: s, Slots: 1},
		{Listen: "127.0.0.1:0", Cluster: c, Apps: apps, Slots: 1},
		{Listen: "127.0.0.1:0", Cluster: c, Apps: apps, Scheduler: s, Slots: 0},
	}
	for i, cfg := range cases {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAgentValidation(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	cases := []AgentConfig{
		{Addr: "x", EdgeID: 0, Apps: apps, Arrivals: [][]int{{1}}},
		{Addr: "x", EdgeID: 0, Device: c.Edges[0].Device, Arrivals: [][]int{{1}}},
		{Addr: "x", EdgeID: -1, Device: c.Edges[0].Device, Apps: apps, Arrivals: [][]int{{1}}},
		{Addr: "x", EdgeID: 0, Device: c.Edges[0].Device, Apps: apps},
	}
	for i, cfg := range cases {
		if _, err := NewAgent(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestServerRejectsBadEdgeID(t *testing.T) {
	// An out-of-range registration is bounced with TypeError, but the run
	// survives: the correctly-behaving agents still register and complete.
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	s, _ := core.New(core.Config{Cluster: c, Apps: apps})
	slots := 2
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps, Scheduler: s, Slots: slots,
		SlotTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(trace.Config{
		Apps: 1, Edges: c.N(), Slots: slots, Seed: 2, MeanPerSlot: 5, Imbalance: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := runSystemAfter(t, srv, c, apps, tr, slots, func(ctx context.Context) {
		agent, err := NewAgent(AgentConfig{
			Addr: srv.Addr().String(), EdgeID: 99,
			Device: c.Edges[0].Device, Apps: apps, Arrivals: [][]int{{1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Run(ctx); err == nil || !strings.Contains(err.Error(), "edge id") {
			t.Fatalf("bad registrant should be told about its edge id, got %v", err)
		}
	})
	if rep.Served == 0 {
		t.Fatal("run with one rejected registrant served nothing")
	}
}

func TestServerTimesOutWithoutAgents(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	s, _ := core.New(core.Config{Cluster: c, Apps: apps})
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps, Scheduler: s, Slots: 1,
		SlotTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := srv.Run(context.Background()); err == nil {
		t.Fatal("server must fail when no agents register")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("registration timeout did not fire promptly")
	}
}

func TestAgentRealtimePacing(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	slots := 2
	s, _ := core.New(core.Config{Cluster: c, Apps: apps})
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: s, Slots: slots, SlotTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for k := 0; k < c.N(); k++ {
		arr := make([][]int, slots)
		for tt := range arr {
			arr[tt] = []int{2}
		}
		agent, err := NewAgent(AgentConfig{
			Addr: srv.Addr().String(), EdgeID: k,
			Device: c.Edges[k].Device, Apps: apps, Arrivals: arr,
			Seed: int64(k), Realtime: 0.0001, // sleeps ~a fraction of a ms
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = agent.Run(ctx)
		}()
	}
	rep, err := srv.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rep.Served == 0 {
		t.Fatal("realtime agents served nothing")
	}
}

func TestAgentContextCancel(t *testing.T) {
	// An agent dialing a black-hole listener must abort on context cancel.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	agent, err := NewAgent(AgentConfig{
		Addr: ln.Addr().String(), EdgeID: 0,
		Device: c.Edges[0].Device, Apps: apps, Arrivals: [][]int{{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled agent should report an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent did not honor context cancellation")
	}
}

func TestWriteMessageOversized(t *testing.T) {
	huge := &Message{Type: TypeReport, CompletionMS: make([]float64, 12<<20)}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, huge); err == nil {
		t.Fatal("oversized message must be rejected at write time")
	}
}

func TestServerRejectsProtocolMismatch(t *testing.T) {
	// A version-mismatched client is bounced with TypeError naming both
	// versions; the run itself survives and completes with the good agents.
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	s, _ := core.New(core.Config{Cluster: c, Apps: apps})
	slots := 2
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps, Scheduler: s, Slots: slots,
		SlotTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(trace.Config{
		Apps: 1, Edges: c.N(), Slots: slots, Seed: 4, MeanPerSlot: 5, Imbalance: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := runSystemAfter(t, srv, c, apps, tr, slots, func(context.Context) {
		raw, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		cc := &conn{raw: raw}
		_ = cc.send(&Message{Type: TypeHello, EdgeID: 0, Version: 99})
		m, _ := cc.recv()
		if m == nil || m.Type != TypeError || !strings.Contains(m.Err, "protocol version") {
			t.Fatalf("mismatched client got %+v, want TypeError naming the protocol version", m)
		}
	})
	if rep.Served == 0 {
		t.Fatal("run with one mismatched client served nothing")
	}
}

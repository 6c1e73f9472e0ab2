package edgenet

import (
	"context"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/models"
	"repro/internal/trace"
)

// dialJoin completes the hello → resync handshake by hand and returns the
// connection plus the slot to serve next (nil on failure).
func dialJoin(t *testing.T, addr string, edgeID int, resume bool, lastSlot int) (*conn, int) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("edge %d dial: %v", edgeID, err)
		return nil, 0
	}
	c := &conn{raw: raw}
	if err := c.send(&Message{
		Type: TypeHello, EdgeID: edgeID, Version: ProtocolVersion,
		Resume: resume, LastSlot: lastSlot,
	}); err != nil {
		t.Errorf("edge %d hello: %v", edgeID, err)
		c.close()
		return nil, 0
	}
	m, err := c.recv()
	if err != nil || m.Type != TypeResync {
		t.Errorf("edge %d: no resync after hello (msg %+v, err %v)", edgeID, m, err)
		c.close()
		return nil, 0
	}
	return c, m.Slot
}

// driveEmptySlots answers n slots starting at slot start with exec's report
// (negative n: until the final assignment). Returns after the first protocol
// hiccup — the callers crash the conn on purpose.
func driveEmptySlots(c *conn, edgeID, apps, start, n int, exec func(*Message) *Message) {
	for slot := start; n < 0 || slot < start+n; slot++ {
		arr := make([]int, apps)
		arr[0] = 2
		if err := c.send(&Message{Type: TypeArrivals, EdgeID: edgeID, Slot: slot, Arrivals: arr}); err != nil {
			return // server may have shut us down already
		}
		m, err := c.recv()
		if err != nil || m.Type != TypeAssign {
			return
		}
		if err := c.send(exec(m)); err != nil || m.Final {
			return
		}
	}
}

// runFlakyAgent speaks the slot protocol directly and slams the connection
// shut after serving dieAfter slots — a deterministic agent crash.
func runFlakyAgent(t *testing.T, addr string, edgeID, apps, dieAfter int, exec func(*Message) *Message) {
	t.Helper()
	c, start := dialJoin(t, addr, edgeID, false, -1)
	if c == nil {
		return
	}
	defer c.close()
	driveEmptySlots(c, edgeID, apps, start, dieAfter, exec)
	// Crash: close without a word, mid-protocol.
}

// serveRealSlots drives the slot protocol with genuine local execution and
// zero local arrivals for n slots (negative n: until the final assignment),
// returning the number of requests this edge completed.
func serveRealSlots(c *conn, dev *accel.Device, apps []*models.Application, edgeID, start, n int) int {
	rng := rand.New(rand.NewSource(77))
	served := 0
	for slot := start; n < 0 || slot < start+n; slot++ {
		arr := make([]int, len(apps))
		if err := c.send(&Message{Type: TypeArrivals, EdgeID: edgeID, Slot: slot, Arrivals: arr}); err != nil {
			return served
		}
		m, err := c.recv()
		if err != nil || m.Type != TypeAssign {
			return served
		}
		deps := make([]edgesim.Deployment, len(m.Assignments))
		for i, asg := range m.Assignments {
			deps[i] = edgesim.Deployment{
				App: asg.App, Version: asg.Version, Edge: edgeID,
				Requests: asg.Requests, BatchSizes: asg.BatchSizes,
			}
		}
		exec := edgesim.ExecuteEdge(dev, apps, edgeID, deps, 0, 1, rng)
		if err := c.send(&Message{
			Type: TypeReport, EdgeID: edgeID, Slot: m.Slot,
			CompletionMS: exec.CompletionMS, CompletionApp: exec.CompletionApp,
			Loss: exec.Loss, Feedback: exec.Feedback,
		}); err != nil {
			return served
		}
		served += len(exec.CompletionMS)
		if m.Final {
			return served
		}
	}
	return served
}

// emptyReport pretends the edge executed nothing (it still answers the slot).
func emptyReport(m *Message) *Message {
	return &Message{Type: TypeReport, EdgeID: m.EdgeID, Slot: m.Slot}
}

func TestServerToleratesAgentFailure(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	slots := 30
	tr, err := trace.Generate(trace.Config{
		Apps: 1, Edges: c.N(), Slots: slots, Seed: 3, MeanPerSlot: 15, Imbalance: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.New(core.Config{Cluster: c, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: slots,
		SlotTimeout:      5 * time.Second,
		TolerateFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for k := 0; k < c.N(); k++ {
		k := k
		if k == 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runFlakyAgent(t, srv.Addr().String(), 1, 1, 3, emptyReport)
			}()
			continue
		}
		arr := make([][]int, slots)
		for tt := 0; tt < slots; tt++ {
			arr[tt] = []int{tr.R[tt][0][k]}
		}
		agent, err := NewAgent(AgentConfig{
			Addr: srv.Addr().String(), EdgeID: k,
			Device: c.Edges[k].Device, Apps: apps,
			Arrivals: arr, Seed: int64(k),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := agent.Run(ctx); err != nil {
				t.Errorf("healthy agent %d: %v", k, err)
			}
		}()
	}
	rep, err := srv.Run(ctx)
	if err != nil {
		t.Fatalf("server must survive one agent failure: %v", err)
	}
	wg.Wait()
	if len(rep.FailedEdges) != 1 || rep.FailedEdges[0] != 1 {
		t.Fatalf("failed edges = %v, want [1]", rep.FailedEdges)
	}
	if len(rep.RejoinedEdges) != 0 {
		t.Fatalf("no agent rejoined, but RejoinedEdges = %v", rep.RejoinedEdges)
	}
	if rep.DownSlots[1] == 0 {
		t.Fatal("failed edge accrued no downtime")
	}
	if rep.Served == 0 {
		t.Fatal("surviving edges served nothing")
	}
	if rep.Loss.Slots() != slots {
		t.Fatalf("loss recorded for %d slots, want %d", rep.Loss.Slots(), slots)
	}
}

func TestServerAbortsWhenAllAgentsFail(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	sched, _ := core.New(core.Config{Cluster: c, Apps: apps})
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: 50,
		SlotTimeout:      2 * time.Second,
		TolerateFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ctx
	var wg sync.WaitGroup
	for k := 0; k < c.N(); k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			runFlakyAgent(t, srv.Addr().String(), k, 1, 2+k, emptyReport)
		}()
	}
	if _, err := srv.Run(ctx); err == nil {
		t.Fatal("server must abort once every edge is dead")
	}
	wg.Wait()
}

func TestFailedEdgeWorkCountsAsDropped(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	sched, _ := core.New(core.Config{Cluster: c, Apps: apps})
	slots := 10
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: slots,
		SlotTimeout:      5 * time.Second,
		TolerateFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for k := 0; k < c.N(); k++ {
		k := k
		if k == 0 {
			// This agent carries real load and dies after 2 slots; any work
			// routed to it afterwards must surface as drops, not vanish.
			wg.Add(1)
			go func() {
				defer wg.Done()
				runFlakyAgent(t, srv.Addr().String(), 0, 1, 2, emptyReport)
			}()
			continue
		}
		arr := make([][]int, slots)
		for tt := range arr {
			arr[tt] = []int{5}
		}
		agent, err := NewAgent(AgentConfig{
			Addr: srv.Addr().String(), EdgeID: k,
			Device: c.Edges[k].Device, Apps: apps, Arrivals: arr, Seed: int64(k),
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
	// The healthy edges' arrivals continue to be served after the failure.
	if rep.Served == 0 {
		t.Fatal("no requests served")
	}
	if len(rep.FailedEdges) != 1 {
		t.Fatalf("failed edges = %v", rep.FailedEdges)
	}
}

func TestKilledEdgeRejoinsAfterRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection rejoin test skipped in short mode")
	}
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	slots := 40
	sched, err := core.New(core.Config{Cluster: c, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: slots,
		SlotTimeout:      5 * time.Second,
		TolerateFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Heavy arrivals at edges 0 and 2 only: every request in the run
	// originates at an always-healthy edge, so Served+Dropped must equal
	// the no-failure request count no matter when edge 1 dies or rejoins.
	// Edge 1 contributes pure capacity — any request it completes was
	// redistributed to it by the scheduler.
	perSlot := 120
	total := slots * perSlot * 2
	var wg sync.WaitGroup
	for _, k := range []int{0, 2} {
		arr := make([][]int, slots)
		for tt := range arr {
			arr[tt] = []int{perSlot}
		}
		agent, err := NewAgent(AgentConfig{
			Addr: srv.Addr().String(), EdgeID: k,
			Device: c.Edges[k].Device, Apps: apps, Arrivals: arr, Seed: int64(k),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(k int, agent *Agent) {
			defer wg.Done()
			if err := agent.Run(ctx); err != nil {
				t.Errorf("healthy agent %d: %v", k, err)
			}
		}(k, agent)
	}
	// The victim executes its redistributed load for 3 slots, then its
	// process "crashes" (hard close, mid-protocol).
	died := make(chan struct{})
	servedBeforeCrash := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(died)
		vc, start := dialJoin(t, srv.Addr().String(), 1, false, -1)
		if vc == nil {
			return
		}
		servedBeforeCrash = serveRealSlots(vc, c.Edges[1].Device, apps, 1, start, 3)
		vc.close()
	}()
	// The "restarted" victim: a brand-new connection (fresh hello, as a
	// restarted process would send) that must be resync'd into the live run.
	servedAfterRejoin := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-died
		rc, start := dialJoin(t, srv.Addr().String(), 1, true, 2)
		if rc == nil {
			return
		}
		defer rc.close()
		servedAfterRejoin = serveRealSlots(rc, c.Edges[1].Device, apps, 1, start, -1)
	}()

	rep, err := srv.Run(ctx)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	if len(rep.FailedEdges) != 1 || rep.FailedEdges[0] != 1 {
		t.Fatalf("failed edges = %v, want [1]", rep.FailedEdges)
	}
	if len(rep.RejoinedEdges) != 1 || rep.RejoinedEdges[0] != 1 {
		t.Fatalf("rejoined edges = %v, want [1]", rep.RejoinedEdges)
	}
	if servedAfterRejoin == 0 {
		t.Fatal("rejoined edge served nothing in post-rejoin slots")
	}
	if rep.DownSlots[1] == 0 {
		t.Fatal("rejoined edge accrued no downtime")
	}
	if got := rep.Served + rep.Dropped; got != total {
		t.Fatalf("served+dropped = %d, want the no-failure request count %d", got, total)
	}
	if want := servedBeforeCrash + servedAfterRejoin; rep.ServedByEdge[1] != want {
		t.Fatalf("ServedByEdge[1] = %d, want %d (= %d before crash + %d after rejoin)",
			rep.ServedByEdge[1], want, servedBeforeCrash, servedAfterRejoin)
	}
}

func TestProtocolViolationToleratedAsEdgeFailure(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	sched, _ := core.New(core.Config{Cluster: c, Apps: apps})
	slots := 6
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: slots,
		SlotTimeout:      5 * time.Second,
		TolerateFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	// Edge 1 stays alive but goes off-script: after one clean slot it sends
	// a report where arrivals belong. The server must drop just this edge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		vc, start := dialJoin(t, srv.Addr().String(), 1, false, -1)
		if vc == nil {
			return
		}
		defer vc.close()
		driveEmptySlots(vc, 1, 1, start, 1, emptyReport)
		_ = vc.send(&Message{Type: TypeReport, EdgeID: 1, Slot: start + 1})
		_, _ = vc.recv() // wait for the server to hang up
	}()
	for _, k := range []int{0, 2} {
		arr := make([][]int, slots)
		for tt := range arr {
			arr[tt] = []int{8}
		}
		agent, err := NewAgent(AgentConfig{
			Addr: srv.Addr().String(), EdgeID: k,
			Device: c.Edges[k].Device, Apps: apps, Arrivals: arr, Seed: int64(k),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(k int, agent *Agent) {
			defer wg.Done()
			if err := agent.Run(ctx); err != nil {
				t.Errorf("healthy agent %d: %v", k, err)
			}
		}(k, agent)
	}
	rep, err := srv.Run(ctx)
	if err != nil {
		t.Fatalf("a protocol violation from one edge must not abort a tolerant run: %v", err)
	}
	wg.Wait()
	if len(rep.FailedEdges) != 1 || rep.FailedEdges[0] != 1 {
		t.Fatalf("failed edges = %v, want [1]", rep.FailedEdges)
	}
	if rep.Served == 0 {
		t.Fatal("surviving edges served nothing")
	}
	if rep.Loss.Slots() != slots {
		t.Fatalf("loss recorded for %d slots, want %d", rep.Loss.Slots(), slots)
	}
}

func TestProtocolViolationAbortsWithoutTolerance(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	sched, _ := core.New(core.Config{Cluster: c, Apps: apps})
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: 6,
		SlotTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		vc, start := dialJoin(t, srv.Addr().String(), 1, false, -1)
		if vc == nil {
			return
		}
		defer vc.close()
		_ = vc.send(&Message{Type: TypeReport, EdgeID: 1, Slot: start})
		_, _ = vc.recv()
	}()
	for _, k := range []int{0, 2} {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			runFlakyAgent(t, srv.Addr().String(), k, 1, 6, emptyReport)
		}(k)
	}
	_, err = srv.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "want arrivals") {
		t.Fatalf("expected a protocol-violation abort, got %v", err)
	}
	wg.Wait()
}

func TestRegistrationRejectsDuplicateEdgeID(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 2)
	sched, _ := core.New(core.Config{Cluster: c, Apps: apps})
	slots := 2
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
		Scheduler: sched, Slots: slots,
		SlotTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Run the server first: registration replies come from inside Run.
	type runResult struct {
		rep *Report
		err error
	}
	resCh := make(chan runResult, 1)
	go func() {
		rep, err := srv.Run(ctx)
		resCh <- runResult{rep, err}
	}()
	// Register edge 0 by hand so the duplicate attempt is deterministic.
	c0, start := dialJoin(t, srv.Addr().String(), 0, false, -1)
	if c0 == nil {
		t.Fatal("edge 0 failed to register")
	}
	defer c0.close()
	// A second hello for the same edge id must be bounced with TypeError —
	// and must not abort the run for the agents that behaved.
	rawDup, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rawDup.Close()
	dup := &conn{raw: rawDup}
	if err := dup.send(&Message{Type: TypeHello, EdgeID: 0, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	m, err := dup.recv()
	if err != nil {
		t.Fatalf("duplicate registrant: %v", err)
	}
	if m.Type != TypeError || !strings.Contains(m.Err, "duplicate") {
		t.Fatalf("duplicate registrant got %q (%q), want TypeError about a duplicate", m.Type, m.Err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		driveEmptySlots(c0, 0, 1, start, slots, emptyReport)
	}()
	for _, k := range []int{1, 2} {
		arr := make([][]int, slots)
		for tt := range arr {
			arr[tt] = []int{4}
		}
		agent, err := NewAgent(AgentConfig{
			Addr: srv.Addr().String(), EdgeID: k,
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
	res := <-resCh
	if res.err != nil {
		t.Fatalf("run must survive a duplicate registration attempt: %v", res.err)
	}
	wg.Wait()
	if len(res.rep.FailedEdges) != 0 {
		t.Fatalf("failed edges = %v, want none", res.rep.FailedEdges)
	}
}

func TestConcurrentCollectionMatchesSerial(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	slots := 6
	tr, err := trace.Generate(trace.Config{
		Apps: 1, Edges: c.N(), Slots: slots, Seed: 11, MeanPerSlot: 20, Imbalance: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(serial bool) *Report {
		sched, err := core.New(core.Config{Cluster: c, Apps: apps})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{
			Listen: "127.0.0.1:0", Cluster: c, Apps: apps,
			Scheduler: sched, Slots: slots, SlotTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.serialPhases = serial
		return runSystem(t, srv, c, apps, tr, slots, 0)
	}
	conc, ser := run(false), run(true)
	if conc.Served != ser.Served || conc.Dropped != ser.Dropped {
		t.Fatalf("served/dropped diverge: concurrent %d/%d vs serial %d/%d",
			conc.Served, conc.Dropped, ser.Served, ser.Dropped)
	}
	if conc.Loss.Total() != ser.Loss.Total() {
		t.Fatalf("loss diverges: concurrent %v vs serial %v", conc.Loss.Total(), ser.Loss.Total())
	}
	for k := range conc.ServedByEdge {
		if conc.ServedByEdge[k] != ser.ServedByEdge[k] {
			t.Fatalf("ServedByEdge[%d]: concurrent %d vs serial %d",
				k, conc.ServedByEdge[k], ser.ServedByEdge[k])
		}
	}
	a := append([]float64(nil), conc.Completion...)
	b := append([]float64(nil), ser.Completion...)
	sort.Float64s(a)
	sort.Float64s(b)
	if len(a) != len(b) {
		t.Fatalf("completion counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion[%d]: concurrent %v vs serial %v", i, a[i], b[i])
		}
	}
}

func TestSetEdgeDownExcludesEdgeFromPlans(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	s, err := core.New(core.Config{Cluster: c, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEdgeDown(1, true)
	// Arrivals only at healthy edges; edge 1 must receive nothing.
	plan, err := s.Decide(0, [][]int{{20, 0, 15}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range plan.Deployments {
		if d.Edge == 1 {
			t.Fatalf("deployment on downed edge: %+v", d)
		}
	}
	for _, tr := range plan.Transfers {
		if tr.To == 1 {
			t.Fatalf("transfer into downed edge: %+v", tr)
		}
	}
	// Recovery restores the edge as a target.
	s.SetEdgeDown(1, false)
	sawEdge1 := false
	for t2 := 1; t2 < 6 && !sawEdge1; t2++ {
		plan, err = s.Decide(t2, [][]int{{120, 120, 120}})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range plan.Deployments {
			if d.Edge == 1 {
				sawEdge1 = true
			}
		}
	}
	if !sawEdge1 {
		t.Fatal("recovered edge never used again")
	}
}

var _ EdgeDownMarker = (*core.Scheduler)(nil)

var _ = edgesim.Deployment{} // document the shared plan vocabulary

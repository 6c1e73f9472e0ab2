package serve

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fmtLogLine is the decision-log line as the fmt-based encoder wrote it; it
// is the reference the append encoder must reproduce byte for byte.
func fmtLogLine(d Decision) string {
	admit := 0
	if d.Admitted {
		admit = 1
	}
	reason := d.Reason
	if reason == "" {
		reason = "-"
	}
	return fmt.Sprintf("%d %d app=%d region=%d admit=%d reason=%s edge=%d snap=%d stale_ns=%d",
		d.Seq, d.Req.ID, d.Req.App, d.Req.Region, admit, reason, d.Edge, d.SnapshotID, d.StaleNS)
}

var logReasons = []string{"", ReasonRate, ReasonNoEdge, ReasonBadRequest}

func checkLogLine(t *testing.T, d Decision) bool {
	t.Helper()
	want := fmtLogLine(d)
	if got := string(d.AppendLog(nil)); got != want {
		t.Errorf("AppendLog:\n got %q\nwant %q", got, want)
		return false
	}
	if got := d.String(); got != want {
		t.Errorf("String:\n got %q\nwant %q", got, want)
		return false
	}
	// Appending extends the buffer it is given and leaves the prefix alone.
	if got := string(d.AppendLog([]byte("prefix|"))); got != "prefix|"+want {
		t.Errorf("AppendLog after a prefix:\n got %q\nwant %q", got, "prefix|"+want)
		return false
	}
	return true
}

// TestDecisionAppendLogMatchesFmt: the append encoder writes exactly the
// fmt-formatted line for the extremes of every field and for random
// decisions.
func TestDecisionAppendLogMatchesFmt(t *testing.T) {
	ints := []int64{0, 1, -1, 9, 10, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	for _, reason := range logReasons {
		for _, v := range ints {
			for _, admitted := range []bool{false, true} {
				checkLogLine(t, Decision{
					Seq: v, Req: Request{ID: -v, App: int(v), Region: int(-v), ArriveNS: v},
					Admitted: admitted, Reason: reason, Edge: -1, SnapshotID: v, StaleNS: v,
				})
			}
		}
	}
	checkLogLine(t, Decision{Edge: math.MaxInt, Req: Request{App: math.MinInt, Region: math.MaxInt}, StaleNS: math.MaxInt64})

	random := func(seq, id, snap, stale int64, app, region, edge int, admitted bool, r uint8) bool {
		return checkLogLine(t, Decision{
			Seq: seq, Req: Request{ID: id, App: app, Region: region}, Admitted: admitted,
			Reason: logReasons[int(r)%len(logReasons)], Edge: edge, SnapshotID: snap, StaleNS: stale,
		})
	}
	if err := quick.Check(random, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// newSteadyLoop builds a loop with token-bucket admission that sheds part of
// the load, least-loaded routing and a decision log, and returns it with a
// request source that advances the virtual clock by stepNS per request.
func newSteadyLoop(tb testing.TB, reoptNS, stepNS int64, ratePerSec float64) (*Loop, func() Request) {
	tb.Helper()
	adm, err := NewTokenBucket(4, ratePerSec)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := NewLoop(Config{
		Apps: 2, Edges: 3,
		Planner:      &stubPlanner{caps: []int{5, 3, 2}},
		Admission:    adm,
		Router:       LeastLoaded{},
		ReoptEveryNS: reoptNS,
		Log:          io.Discard,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var id int64
	next := func() Request {
		req := Request{ID: id, App: int(id % 2), Region: int(id % 3), ArriveNS: id * stepNS}
		id++
		return req
	}
	return l, next
}

// TestLoopSubmitAllocatesNothingBetweenReplans: once the loop has replanned
// and seen both an admit and a rate-limit reject, deciding a request —
// admission, routing, accounting and the log line — allocates nothing.
func TestLoopSubmitAllocatesNothingBetweenReplans(t *testing.T) {
	const step = int64(10e6) // 100 requests per virtual second, bucket refills at 50
	l, next := newSteadyLoop(t, 100*secNS, step, 50)
	// Snapshot 1 is the bootstrap plan, 2 the first cadence replan's.
	for d := (Decision{}); d.SnapshotID < 2; {
		var err error
		if d, err = l.Submit(next()); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	if before.Admitted == 0 || before.Rejected[ReasonRate] == 0 {
		t.Fatalf("warm-up saw admitted %d, rate-limited %d; want both", before.Admitted, before.Rejected[ReasonRate])
	}
	// One run of 1000 decisions, so a single allocation anywhere shows up
	// as 1 rather than averaging away.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			if _, err := l.Submit(next()); err != nil {
				t.Fatal(err)
			}
		}
	})
	after := l.Stats()
	if after.Replans != before.Replans {
		t.Fatalf("the measured decisions crossed %d replans; want none", after.Replans-before.Replans)
	}
	if after.Admitted == before.Admitted || after.Rejected[ReasonRate] == before.Rejected[ReasonRate] {
		t.Fatal("the measured decisions did not both admit and reject")
	}
	if allocs != 0 {
		t.Fatalf("Submit allocated %v times over 1000 decisions between replans; want 0", allocs)
	}
}

// BenchmarkLoopSubmit measures one Submit between replans: the cadence is
// far beyond the benchmark's virtual span, so no op pays for a re-solve.
func BenchmarkLoopSubmit(b *testing.B) {
	// 1 µs per request, bucket refills at half that rate: about half the
	// requests are admitted and routed, half rate-limited.
	l, next := newSteadyLoop(b, math.MaxInt64/4, 1000, 5e5)
	for i := 0; i < 64; i++ {
		if _, err := l.Submit(next()); err != nil {
			b.Fatal(err)
		}
	}
	replans := l.Stats().Replans
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Submit(next()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := l.Stats().Replans; got != replans {
		b.Fatalf("benchmark crossed %d replans", got-replans)
	}
}

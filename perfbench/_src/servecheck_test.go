package main

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/serve"
)

const sec = int64(1e9)

// validStream is a decision stream a token bucket of capacity 2 and rate 1/s
// could produce on two edges, with its matching counters.
func validStream() ([]serve.Decision, *metrics.ServeStats) {
	ds := []serve.Decision{
		{Req: serve.Request{ArriveNS: 0}, Admitted: true, Edge: 0},
		{Req: serve.Request{ArriveNS: 0}, Admitted: true, Edge: 1},
		{Req: serve.Request{ArriveNS: sec / 2}, Reason: serve.ReasonRate, Edge: -1},
		{Req: serve.Request{ArriveNS: sec}, Admitted: true, Edge: 0, StaleNS: sec},
		{Req: serve.Request{ArriveNS: 3 * sec}, Admitted: true, Edge: 0, StaleNS: 3 * sec},
		{Req: serve.Request{ArriveNS: 3 * sec}, Admitted: true, Edge: 1, StaleNS: 3 * sec},
	}
	for i := range ds {
		ds[i].Seq = int64(i)
	}
	st := metrics.NewServeStats(2)
	st.Submitted, st.Admitted = 6, 5
	st.RoutedByEdge[0], st.RoutedByEdge[1] = 3, 2
	st.Rejected[serve.ReasonRate] = 1
	return ds, st
}

func auditStream(ds []serve.Decision, st *metrics.ServeStats) []string {
	c := newServeChecker(2, 2, 1, 4*sec)
	for _, d := range ds {
		c.note(d)
	}
	c.finish(st)
	msgs, _ := c.violations()
	return msgs
}

func TestServeCheckerAcceptsValidStream(t *testing.T) {
	ds, st := validStream()
	if msgs := auditStream(ds, st); len(msgs) != 0 {
		t.Fatalf("valid stream rejected: %v", msgs)
	}
}

func TestServeCheckerCatchesEachViolation(t *testing.T) {
	cases := []struct {
		name   string
		doctor func(ds []serve.Decision, st *metrics.ServeStats) []serve.Decision
		want   string
	}{
		{"burst over capacity", func(ds []serve.Decision, _ *metrics.ServeStats) []serve.Decision {
			// The rate-limited request at 0.5 s admitted instead: three
			// admissions within half a second, bound 2 + 0.5.
			ds[2] = serve.Decision{Seq: 2, Req: serve.Request{ArriveNS: sec / 2}, Admitted: true, Edge: 0}
			return ds
		}, "admission:"},
		{"sustained rate over refill", func(ds []serve.Decision, _ *metrics.ServeStats) []serve.Decision {
			// Both admissions at 3 s moved to 1.5 s: four admitted in 1.5 s.
			ds[4].Req.ArriveNS, ds[5].Req.ArriveNS = 3*sec/2, 3*sec/2
			return ds
		}, "admission:"},
		{"stale snapshot", func(ds []serve.Decision, _ *metrics.ServeStats) []serve.Decision {
			ds[3].StaleNS = 5 * sec
			return ds
		}, "staleness:"},
		{"submitted miscounted", func(ds []serve.Decision, st *metrics.ServeStats) []serve.Decision {
			st.Submitted++
			return ds
		}, "accounting: ServeStats.Submitted"},
		{"admitted miscounted", func(ds []serve.Decision, st *metrics.ServeStats) []serve.Decision {
			st.Admitted--
			return ds
		}, "accounting: ServeStats.Admitted"},
		{"routed total off", func(ds []serve.Decision, st *metrics.ServeStats) []serve.Decision {
			st.RoutedByEdge[1]++
			return ds
		}, "accounting: Σ ServeStats.RoutedByEdge"},
		{"routed to the wrong edge", func(ds []serve.Decision, st *metrics.ServeStats) []serve.Decision {
			st.RoutedByEdge[0]--
			st.RoutedByEdge[1]++
			return ds
		}, "accounting: ServeStats.RoutedByEdge[0]"},
		{"lost decision", func(ds []serve.Decision, _ *metrics.ServeStats) []serve.Decision {
			return append(ds[:2], ds[3:]...)
		}, "shape: decision 2 carries seq 3"},
		{"rejected with an edge", func(ds []serve.Decision, _ *metrics.ServeStats) []serve.Decision {
			ds[2].Edge = 1
			return ds
		}, "shape: rejected decision 2"},
		{"admitted without an edge", func(ds []serve.Decision, _ *metrics.ServeStats) []serve.Decision {
			ds[0].Edge = 5
			return ds
		}, "shape: admitted decision 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, st := validStream()
			ds = tc.doctor(ds, st)
			msgs := auditStream(ds, st)
			for _, m := range msgs {
				if strings.Contains(m, tc.want) {
					return
				}
			}
			t.Fatalf("no violation containing %q; got %v", tc.want, msgs)
		})
	}
}

// The decision-log hash that is compared across worker counts must see any
// changed byte of the log.
func TestLogSinkSumSeesEveryByte(t *testing.T) {
	sum := func(lines ...string) uint32 {
		w := &logSink{crc: castagnoliTable}
		for _, l := range lines {
			if _, err := w.Write([]byte(l)); err != nil {
				t.Fatal(err)
			}
		}
		return w.sum
	}
	d := serve.Decision{Seq: 3, Admitted: true, Edge: 1}
	line := d.String() + "\n"
	base := sum(line, line)
	d.Edge = 2
	if sum(line, d.String()+"\n") == base {
		t.Fatal("a changed edge leaves the log sum unchanged")
	}
	if sum(line, line, "") != base || sum(line+line) != base {
		t.Fatal("the log sum depends on how writes are split")
	}
}

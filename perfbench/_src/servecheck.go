package main

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// serveChecker audits the serve workload's decision stream as Submit returns
// it, in constant memory:
//   - accounting: the decisions it counts (submitted, admitted, routed per
//     edge) must equal metrics.ServeStats at the end of the round;
//   - admission: over every window of admitted decisions, the count is at
//     most capacity + rate·window, the token bucket's guarantee;
//   - staleness: no decision reads a snapshot older than the bound;
//   - shape: sequence numbers run 0, 1, 2, ... and only admitted decisions
//     name an edge.
type serveChecker struct {
	capacity, ratePerSec float64
	staleBoundNS         int64
	submitted, admitted  int64
	routed               []int64
	// minSlack is the running minimum of n − rate·t over admitted decisions
	// (n their running count, t the arrival time in seconds). The window
	// bound holds for every window ending at decision n iff
	// (n − rate·t_n) − minSlack + 1 ≤ capacity, where the minimum covers
	// decisions up to and including n.
	minSlack float64
	errs     []string
	nErrs    int
}

func newServeChecker(edges int, capacity, ratePerSec float64, staleBoundNS int64) *serveChecker {
	return &serveChecker{
		capacity: capacity, ratePerSec: ratePerSec, staleBoundNS: staleBoundNS,
		routed: make([]int64, edges),
	}
}

func (c *serveChecker) fail(format string, args ...any) {
	c.nErrs++
	if len(c.errs) < maxKeptViolations {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// note audits one decision.
func (c *serveChecker) note(d serve.Decision) {
	if d.Seq != c.submitted {
		c.fail("shape: decision %d carries seq %d", c.submitted, d.Seq)
	}
	c.submitted++
	if d.StaleNS < 0 || d.StaleNS > c.staleBoundNS {
		c.fail("staleness: decision %d read a snapshot %d ns old, bound %d ns", d.Seq, d.StaleNS, c.staleBoundNS)
	}
	if !d.Admitted {
		if d.Edge != -1 || d.Reason == "" {
			c.fail("shape: rejected decision %d has edge %d reason %q", d.Seq, d.Edge, d.Reason)
		}
		return
	}
	if d.Edge < 0 || d.Edge >= len(c.routed) {
		c.fail("shape: admitted decision %d routed to edge %d", d.Seq, d.Edge)
		return
	}
	c.routed[d.Edge]++
	c.admitted++
	slack := float64(c.admitted) - c.ratePerSec*float64(d.Req.ArriveNS)/1e9
	if c.admitted == 1 || slack < c.minSlack {
		c.minSlack = slack
	}
	if slack-c.minSlack+1 > c.capacity+1e-6 {
		c.fail("admission: %.0f decisions admitted in a window ending at %d ns, bound capacity %.0f + rate·window",
			slack-c.minSlack+1, d.Req.ArriveNS, c.capacity)
	}
}

// finish compares the counted decisions with the loop's own counters.
func (c *serveChecker) finish(st *metrics.ServeStats) {
	if st.Submitted != c.submitted {
		c.fail("accounting: ServeStats.Submitted %d, decisions returned %d", st.Submitted, c.submitted)
	}
	if st.Admitted != c.admitted {
		c.fail("accounting: ServeStats.Admitted %d, admitted decisions %d", st.Admitted, c.admitted)
	}
	var sum int64
	for _, n := range st.RoutedByEdge {
		sum += n
	}
	if sum != c.admitted || len(st.RoutedByEdge) != len(c.routed) {
		c.fail("accounting: Σ ServeStats.RoutedByEdge %d over %d edges, admitted decisions %d over %d edges",
			sum, len(st.RoutedByEdge), c.admitted, len(c.routed))
		return
	}
	for k, n := range st.RoutedByEdge {
		if n != c.routed[k] {
			c.fail("accounting: ServeStats.RoutedByEdge[%d] %d, decisions routed there %d", k, n, c.routed[k])
		}
	}
}

// violations returns the kept violation messages and the total count.
func (c *serveChecker) violations() ([]string, int) { return c.errs, c.nErrs }

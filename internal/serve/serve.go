// Package serve is the online serving layer in front of the slot optimizer:
// a continuous request stream passes token-bucket admission and a pluggable
// router that dispatches against an immutable snapshot of the last plan,
// while re-optimization runs over the rolling arrival window and atomically
// swaps the snapshot. It decouples per-request serving latency from solve
// latency — the slot-batch pipeline aggregates a whole slot before anything
// runs; here a request is admitted and routed in microseconds against the
// most recent plan, and the optimizer catches up in the background.
//
// Everything in this package runs on a virtual clock: int64 nanoseconds
// carried by the requests themselves (Request.ArriveNS) or fed through
// Loop.Tick. Given the same request script and configuration the
// admit/route decision log is byte-identical run to run and across planner
// worker counts — the wall clock never feeds a decision. The daemon front
// end (cmd/birpserve) maps wall time onto the virtual clock at the very
// edge of the process; tests and replays never read a clock at all.
package serve

import "strconv"

// Request is one inference request offered to the serving loop.
type Request struct {
	// ID is the caller's correlation id (echoed in the decision log).
	ID int64 `json:"id"`
	// App indexes the application issuing the request.
	App int `json:"app"`
	// Region is the edge the request arrived at (its network home); the
	// affinity router prefers it and rejected demand is attributed to it.
	Region int `json:"region"`
	// ArriveNS is the arrival time on the virtual clock. Scripts must be
	// non-decreasing; the loop's clock never runs backward regardless.
	ArriveNS int64 `json:"arrive_ns"`
}

// Decision is the outcome of one request: admitted-and-routed, or rejected
// with a reason. Exactly one decision exists per submitted request.
type Decision struct {
	// Seq is the loop-assigned decision sequence number (0-based).
	Seq int64 `json:"seq"`
	// Req echoes the request being decided.
	Req Request `json:"req"`
	// Admitted is true when the request passed admission and was routed.
	Admitted bool `json:"admitted"`
	// Reason explains a rejection ("" when admitted): ReasonRate,
	// ReasonNoEdge, ReasonBadRequest.
	Reason string `json:"reason,omitempty"`
	// Edge is the serving edge (-1 when not routed).
	Edge int `json:"edge"`
	// SnapshotID and StaleNS identify the plan snapshot the decision was
	// made against and its age at decision time.
	SnapshotID int64 `json:"snapshot_id"`
	StaleNS    int64 `json:"stale_ns"`
}

// Rejection reasons. Every shed request carries exactly one.
const (
	// ReasonRate: the admission policy shed the request (token bucket dry).
	ReasonRate = "rate-limit"
	// ReasonNoEdge: no live edge with plan capacity could serve it.
	ReasonNoEdge = "no-edge"
	// ReasonBadRequest: app or region index outside the configured shape.
	ReasonBadRequest = "bad-request"
)

// String renders the canonical decision-log line (no trailing newline).
// The format is stable: the byte-identity acceptance check compares these
// lines across worker counts.
func (d Decision) String() string { return string(d.AppendLog(nil)) }

// AppendLog appends the canonical decision-log line (no trailing newline)
// to b and returns the extended buffer:
//
//	seq id app=A region=R admit=0|1 reason=REASON|- edge=E snap=S stale_ns=N
//
// It formats with strconv and literal appends, so a caller that reuses b
// writes the log without allocating.
func (d Decision) AppendLog(b []byte) []byte {
	b = strconv.AppendInt(b, d.Seq, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, d.Req.ID, 10)
	b = append(b, " app="...)
	b = strconv.AppendInt(b, int64(d.Req.App), 10)
	b = append(b, " region="...)
	b = strconv.AppendInt(b, int64(d.Req.Region), 10)
	if d.Admitted {
		b = append(b, " admit=1 reason="...)
	} else {
		b = append(b, " admit=0 reason="...)
	}
	if d.Reason == "" {
		b = append(b, '-')
	} else {
		b = append(b, d.Reason...)
	}
	b = append(b, " edge="...)
	b = strconv.AppendInt(b, int64(d.Edge), 10)
	b = append(b, " snap="...)
	b = strconv.AppendInt(b, d.SnapshotID, 10)
	b = append(b, " stale_ns="...)
	return strconv.AppendInt(b, d.StaleNS, 10)
}

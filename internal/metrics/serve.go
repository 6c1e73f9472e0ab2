package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// ServeStats aggregates the online serving layer's observability counters:
// admission outcomes, per-edge routing volume, snapshot swaps, and the
// snapshot-staleness distribution observed at decision time. Every request
// offered to the serving loop lands in exactly one of Admitted or Rejected
// (by reason), so Submitted == Admitted + RejectedTotal() is an invariant
// the smoke tier asserts — nothing is dropped on the floor unaccounted.
//
// All times are virtual nanoseconds from the serving loop's deterministic
// clock; the wall clock never feeds these fields (dettaint enforces that:
// ServeStats is a *Stats sink type).
type ServeStats struct {
	// Submitted counts every request offered to the loop.
	Submitted int64 `json:"submitted"`
	// Admitted counts requests that passed admission and were routed.
	Admitted int64 `json:"admitted"`
	// Rejected counts shed requests by reason ("rate-limit", "no-edge",
	// "bad-request", ...).
	Rejected map[string]int64 `json:"rejected,omitempty"`
	// RoutedByEdge[k] counts admitted requests dispatched to edge k.
	RoutedByEdge []int64 `json:"routed_by_edge"`
	// Replans counts snapshot swaps (re-optimizations adopted);
	// ForcedReplans is the subset run synchronously because a decision
	// would otherwise have read a snapshot older than the staleness bound.
	Replans       int64 `json:"replans"`
	ForcedReplans int64 `json:"forced_replans"`
	// ReplanErrors counts re-optimizations that failed (the previous
	// snapshot stays installed; serving continues).
	ReplanErrors int64 `json:"replan_errors,omitempty"`
	// MaxStaleNS is the largest snapshot staleness observed at any decision.
	MaxStaleNS int64 `json:"max_stale_ns"`

	// The staleness distribution lives in a fixed log-linear histogram, so
	// recording a decision is O(1) and the stats hold the same memory after
	// a billion decisions as after one.
	staleN    int64               // decisions recorded
	staleHist [staleBuckets]int64 // decisions per bucket (see staleBucket)
}

// Staleness histogram layout. Values below staleSub are counted exactly, one
// bucket each. Above that, every power-of-two range [2^e, 2^(e+1)) is split
// into staleSub equal sub-buckets, so a bucket is never wider than 1/staleSub
// of its lower edge: reporting a bucket's upper edge overstates any sample in
// it by less than 1/64 of the sample. With staleSub = 64 the ranges up to
// [2^6, 2^7) have width-1 buckets, so every value below 128 ns is exact.
// Every non-negative int64 fits in 58 × 64 = 3,712 buckets (29 KiB).
const (
	staleSubBits = 6
	staleSub     = 1 << staleSubBits
	staleBuckets = (64 - staleSubBits) * staleSub
)

// staleBucket maps a non-negative value to its histogram bucket.
func staleBucket(v int64) int {
	if v < staleSub {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - staleSubBits
	return shift*staleSub + int(v>>shift)
}

// staleBucketMax is the largest value staleBucket maps to bucket b.
func staleBucketMax(b int) int64 {
	if b < staleSub {
		return int64(b)
	}
	shift := b/staleSub - 1
	mant := uint64(b - shift*staleSub) // in [staleSub, 2·staleSub)
	return int64((mant+1)<<shift - 1)
}

// NewServeStats sizes the per-edge counters for a K-edge cluster.
func NewServeStats(edges int) *ServeStats {
	return &ServeStats{
		Rejected:     map[string]int64{},
		RoutedByEdge: make([]int64, edges),
	}
}

// NoteAdmit records an admitted request routed to edge at the given
// snapshot staleness.
func (s *ServeStats) NoteAdmit(edge int, staleNS int64) {
	s.Admitted++
	if edge >= 0 && edge < len(s.RoutedByEdge) {
		s.RoutedByEdge[edge]++
	}
	s.noteStale(staleNS)
}

// NoteReject records a shed request with its reason.
func (s *ServeStats) NoteReject(reason string, staleNS int64) {
	if s.Rejected == nil {
		s.Rejected = map[string]int64{}
	}
	s.Rejected[reason]++
	s.noteStale(staleNS)
}

func (s *ServeStats) noteStale(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns > s.MaxStaleNS {
		s.MaxStaleNS = ns
	}
	s.staleN++
	s.staleHist[staleBucket(ns)]++
}

// NoteReplan records a snapshot swap.
func (s *ServeStats) NoteReplan(forced bool) {
	s.Replans++
	if forced {
		s.ForcedReplans++
	}
}

// RejectedTotal sums the per-reason reject counters.
func (s *ServeStats) RejectedTotal() int64 {
	var n int64
	for _, v := range s.Rejected { // integer sum: order-independent
		n += v
	}
	return n
}

// Decisions is the number of requests decided (admitted or rejected).
func (s *ServeStats) Decisions() int64 { return s.Admitted + s.RejectedTotal() }

// StaleQuantileNS returns the q-th nearest-rank quantile of the staleness
// samples (0 when no decisions were recorded), read from the histogram: the
// upper edge of the bucket holding the nearest-rank sample, capped at
// MaxStaleNS. The result is never below the exact nearest-rank sample and
// overstates it by less than 1/64 of its value; samples below 128 ns, and
// the maximum (q = 1), are exact.
func (s *ServeStats) StaleQuantileNS(q float64) int64 {
	if s.staleN == 0 {
		return 0
	}
	i := int64(float64(s.staleN)*q) - 1
	if q >= 1 {
		i = s.staleN - 1
	}
	if i < 0 {
		i = 0
	}
	var seen int64
	for b, n := range s.staleHist {
		if seen += n; seen > i {
			return min(staleBucketMax(b), s.MaxStaleNS)
		}
	}
	return s.MaxStaleNS // unreachable: the buckets sum to staleN
}

// Clone deep-copies the stats so a live serving loop can publish a
// consistent snapshot while decisions continue.
func (s *ServeStats) Clone() *ServeStats {
	cp := *s
	cp.Rejected = make(map[string]int64, len(s.Rejected))
	for k, v := range s.Rejected { // map→map copy: order cannot leak
		cp.Rejected[k] = v
	}
	cp.RoutedByEdge = append([]int64(nil), s.RoutedByEdge...)
	return &cp // the histogram is an array: copied with the struct
}

// String renders the counters deterministically (reject reasons sorted).
func (s *ServeStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "submitted %d admitted %d rejected %d", s.Submitted, s.Admitted, s.RejectedTotal())
	reasons := make([]string, 0, len(s.Rejected))
	for r := range s.Rejected {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(&b, " %s=%d", r, s.Rejected[r])
	}
	fmt.Fprintf(&b, " replans %d (forced %d) stale p50/p99/max %.1f/%.1f/%.1fms",
		s.Replans, s.ForcedReplans,
		float64(s.StaleQuantileNS(0.5))/1e6, float64(s.StaleQuantileNS(0.99))/1e6,
		float64(s.MaxStaleNS)/1e6)
	return b.String()
}

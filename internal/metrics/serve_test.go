package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestServeStatsCountersAndInvariant(t *testing.T) {
	s := NewServeStats(3)
	s.Submitted = 5
	s.NoteAdmit(0, 100)
	s.NoteAdmit(2, 300)
	s.NoteAdmit(2, 200)
	s.NoteReject("rate-limit", 400)
	s.NoteReject("no-edge", 50)
	if s.Admitted != 3 || s.RejectedTotal() != 2 || s.Decisions() != 5 {
		t.Fatalf("admitted=%d rejected=%d decisions=%d", s.Admitted, s.RejectedTotal(), s.Decisions())
	}
	if s.Submitted != s.Admitted+s.RejectedTotal() {
		t.Fatal("accounting invariant broken")
	}
	if s.RoutedByEdge[0] != 1 || s.RoutedByEdge[1] != 0 || s.RoutedByEdge[2] != 2 {
		t.Fatalf("routed-by-edge %v", s.RoutedByEdge)
	}
	if s.MaxStaleNS != 400 {
		t.Fatalf("max stale %d, want 400", s.MaxStaleNS)
	}
	s.NoteReplan(false)
	s.NoteReplan(true)
	if s.Replans != 2 || s.ForcedReplans != 1 {
		t.Fatalf("replans %d forced %d", s.Replans, s.ForcedReplans)
	}
	// Out-of-range edge must not panic or corrupt the counters.
	s.NoteAdmit(99, 0)
	if s.Admitted != 4 {
		t.Fatalf("out-of-range admit lost: %d", s.Admitted)
	}
}

func TestServeStatsQuantiles(t *testing.T) {
	s := NewServeStats(1)
	if s.StaleQuantileNS(0.5) != 0 {
		t.Fatal("empty quantile not zero")
	}
	// Insert 1..100ns out of order; nearest-rank must sort internally.
	for _, v := range []int64{70, 10, 100, 40, 20, 90, 30, 60, 50, 80} {
		s.noteStale(v)
	}
	if got := s.StaleQuantileNS(0.5); got != 50 {
		t.Fatalf("p50 = %d, want 50", got)
	}
	if got := s.StaleQuantileNS(1.0); got != 100 {
		t.Fatalf("p100 = %d, want 100", got)
	}
	if got := s.StaleQuantileNS(0.01); got != 10 {
		t.Fatalf("p1 clamps to first sample, got %d", got)
	}
	// Negative samples clamp to zero.
	s2 := NewServeStats(1)
	s2.noteStale(-5)
	if s2.MaxStaleNS != 0 || s2.StaleQuantileNS(1) != 0 {
		t.Fatal("negative staleness not clamped")
	}
}

func TestServeStatsCloneIsIndependent(t *testing.T) {
	s := NewServeStats(2)
	s.Submitted = 2
	s.NoteAdmit(1, 10)
	s.NoteReject("rate-limit", 20)
	cp := s.Clone()
	s.NoteAdmit(0, 999)
	s.NoteReject("rate-limit", 999)
	s.Rejected["no-edge"] = 7
	if cp.Admitted != 1 || cp.RejectedTotal() != 1 || cp.MaxStaleNS != 20 {
		t.Fatalf("clone mutated by later writes: %+v", cp)
	}
	if cp.RoutedByEdge[0] != 0 || cp.StaleQuantileNS(1) != 20 {
		t.Fatal("clone shares backing slices with the original")
	}
}

func TestServeStatsStringDeterministic(t *testing.T) {
	build := func(order []string) string {
		s := NewServeStats(1)
		for _, r := range order {
			s.NoteReject(r, 0)
		}
		s.Submitted = int64(len(order))
		return s.String()
	}
	a := build([]string{"no-edge", "rate-limit", "bad-request"})
	b := build([]string{"rate-limit", "bad-request", "no-edge"})
	if a != b {
		t.Fatalf("String depends on insertion order:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "bad-request=1 no-edge=1 rate-limit=1") {
		t.Fatalf("reasons not sorted: %s", a)
	}
}

// exactStaleQuantile is the nearest-rank quantile over the raw samples — the
// sort every quantile query used to pay, kept here as the histogram's oracle.
func exactStaleQuantile(samples []int64, q float64) int64 {
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(float64(len(sorted))*q) - 1
	if q >= 1 {
		i = len(sorted) - 1
	}
	return sorted[max(i, 0)]
}

// TestStaleBucketEdges: every bucket's upper edge maps back to the bucket,
// the next value starts the next bucket, and a bucket never spans more than
// 1/64 of its lower edge — so the buckets tile [0, MaxInt64] with the
// documented error bound.
func TestStaleBucketEdges(t *testing.T) {
	if got := staleBucket(math.MaxInt64); got != staleBuckets-1 {
		t.Fatalf("MaxInt64 lands in bucket %d, want the last, %d", got, staleBuckets-1)
	}
	if got := staleBucketMax(staleBuckets - 1); got != math.MaxInt64 {
		t.Fatalf("last bucket ends at %d, want MaxInt64", got)
	}
	lo := int64(0)
	for b := 0; b < staleBuckets; b++ {
		hi := staleBucketMax(b)
		if staleBucket(lo) != b || staleBucket(hi) != b {
			t.Fatalf("bucket %d = [%d, %d] but those map to %d and %d", b, lo, hi, staleBucket(lo), staleBucket(hi))
		}
		if lo < 128 && hi != lo {
			t.Fatalf("bucket %d = [%d, %d]: values below 128 must be exact", b, lo, hi)
		}
		if float64(hi-lo) > float64(lo)/64 {
			t.Fatalf("bucket %d = [%d, %d] wider than 1/64 of its lower edge", b, lo, hi)
		}
		lo = hi + 1
	}
}

// TestStaleQuantileMatchesExactSort compares the histogram quantiles with an
// exact sort of the same samples: never below the exact value, within 1/64
// of it, never above the observed maximum, and exact at q = 1.
func TestStaleQuantileMatchesExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pow2 []int64
	for e := 0; e < 63; e++ {
		v := int64(1) << e
		pow2 = append(pow2, v-1, v)
		if v < math.MaxInt64 {
			pow2 = append(pow2, v+1)
		}
	}
	pow2 = append(pow2, math.MaxInt64)
	cases := map[string][]int64{
		"powers of two ±1": pow2,
		"all equal":        make([]int64, 1000),
		"one sample":       {987654321},
	}
	for i := range cases["all equal"] {
		cases["all equal"][i] = 4_898_947_071
	}
	for r := 0; r < 20; r++ {
		n := 1 + rng.Intn(5000)
		s := make([]int64, n)
		scale := rng.Intn(62) // samples spread over [0, 2^scale)
		for i := range s {
			s[i] = rng.Int63n(int64(1)<<scale + 1)
		}
		cases[fmt.Sprintf("random %d", r)] = s
	}
	for name, samples := range cases {
		st := NewServeStats(1)
		for _, v := range samples {
			st.noteStale(v)
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
			got, want := st.StaleQuantileNS(q), exactStaleQuantile(samples, q)
			if got < want {
				t.Errorf("%s q=%v: histogram %d below the exact %d", name, q, got, want)
			}
			if float64(got-want) > float64(want)/64 {
				t.Errorf("%s q=%v: histogram %d exceeds the exact %d by more than 1/64", name, q, got, want)
			}
			if got > st.MaxStaleNS {
				t.Errorf("%s q=%v: histogram %d above the maximum %d", name, q, got, st.MaxStaleNS)
			}
			if q == 1 && got != want {
				t.Errorf("%s: p100 = %d, want the exact maximum %d", name, got, want)
			}
		}
	}
}

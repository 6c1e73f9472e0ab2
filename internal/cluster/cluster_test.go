package cluster

import (
	"fmt"
	"testing"

	"repro/internal/accel"
)

func TestDefaultTopology(t *testing.T) {
	c := Default()
	if c.N() != 6 {
		t.Fatalf("default cluster has %d edges, want 6", c.N())
	}
	types := map[string]int{}
	for _, e := range c.Edges {
		types[e.Device.Name]++
		if e.MemoryMB < 4500 || e.MemoryMB > 6500 {
			t.Errorf("%s: memory %v outside paper range [4500, 6500]", e.Name, e.MemoryMB)
		}
		if e.BandwidthLoMbps != 50 || e.BandwidthHiMbps != 100 {
			t.Errorf("%s: bandwidth range [%v, %v], paper uses [50, 100]",
				e.Name, e.BandwidthLoMbps, e.BandwidthHiMbps)
		}
	}
	for name, n := range types {
		if n != 2 {
			t.Errorf("device type %s has %d instances, want 2", name, n)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallTopology(t *testing.T) {
	c := Small()
	if c.N() != 3 {
		t.Fatalf("small cluster has %d edges, want 3", c.N())
	}
	seen := map[string]bool{}
	for _, e := range c.Edges {
		seen[e.Device.Name] = true
	}
	if len(seen) != 3 {
		t.Fatalf("small cluster should have one edge per device type, got %v", seen)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptions(t *testing.T) {
	c := Default(WithSlotSeconds(42), WithSeed(9))
	if c.SlotSeconds != 42 {
		t.Fatalf("SlotSeconds = %v", c.SlotSeconds)
	}
	if c.SlotMS() != 42000 {
		t.Fatalf("SlotMS = %v", c.SlotMS())
	}
}

func TestBandwidthWithinRangeAndDeterministic(t *testing.T) {
	c := Default(WithSeed(3))
	lo := 50 * c.SlotSeconds / 8
	hi := 100 * c.SlotSeconds / 8
	for tt := 0; tt < 50; tt++ {
		for k := 0; k < c.N(); k++ {
			v := c.BandwidthMBAt(tt, k)
			if v < lo || v > hi {
				t.Fatalf("bandwidth %v outside [%v, %v]", v, lo, hi)
			}
			if v != c.BandwidthMBAt(tt, k) {
				t.Fatal("bandwidth must be deterministic per (t, k)")
			}
		}
	}
	// Different slots should usually differ.
	if c.BandwidthMBAt(0, 0) == c.BandwidthMBAt(1, 0) && c.BandwidthMBAt(1, 0) == c.BandwidthMBAt(2, 0) {
		t.Fatal("bandwidth does not vary across slots")
	}
}

func TestValidateCatchesMistakes(t *testing.T) {
	cases := []*Cluster{
		{SlotSeconds: 10},
		{SlotSeconds: 0, Edges: []*Edge{{Device: &accel.JetsonNano, MemoryMB: 100, BandwidthLoMbps: 1, BandwidthHiMbps: 2}}},
		{SlotSeconds: 10, Edges: []*Edge{{Device: nil, MemoryMB: 100, BandwidthLoMbps: 1, BandwidthHiMbps: 2}}},
		{SlotSeconds: 10, Edges: []*Edge{{Device: &accel.JetsonNano, MemoryMB: 0, BandwidthLoMbps: 1, BandwidthHiMbps: 2}}},
		{SlotSeconds: 10, Edges: []*Edge{{Device: &accel.JetsonNano, MemoryMB: 100, BandwidthLoMbps: 5, BandwidthHiMbps: 2}}},
		{SlotSeconds: 10, Edges: []*Edge{{Device: &accel.JetsonNano, MemoryMB: 100, BandwidthLoMbps: 0, BandwidthHiMbps: 2}}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestBandwidthDrawsArePinned: the cache must not change the realized
// budgets — these are the math/rand draws every recorded plan was made
// against.
func TestBandwidthDrawsArePinned(t *testing.T) {
	c := Default(WithSeed(1))
	for _, tc := range []struct {
		t, k int
		mb   float64
	}{{0, 0, 100.29126799872621}, {7, 3, 66.64674413803192}, {12345, 5, 87.2362068964519}} {
		for rep := 0; rep < 2; rep++ { // miss, then hit
			if got := c.BandwidthMBAt(tc.t, tc.k); got != tc.mb {
				t.Fatalf("slot %d edge %d: %v MB, want %v", tc.t, tc.k, got, tc.mb)
			}
		}
	}
	sub, err := c.Sub([]int{5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.BandwidthMBAt(12345, 0); got != 87.2362068964519 {
		t.Fatalf("sub view of edge 5: %v MB, want the parent's draw", got)
	}
}

// TestBandwidthCacheEvictsAndRedraws: values equal a fresh draw on first
// use, on a cache hit, and again after their slot has been evicted.
func TestBandwidthCacheEvictsAndRedraws(t *testing.T) {
	c := Default(WithSeed(3))
	check := func(slot int) {
		t.Helper()
		for k := 0; k < c.N(); k++ {
			if got, want := c.BandwidthMBAt(slot, k), c.drawBandwidthMB(slot, k); got != want {
				t.Fatalf("slot %d edge %d: %v MB, fresh draw %v", slot, k, got, want)
			}
		}
	}
	for slot := -3; slot < 3*bwRingSlots; slot++ {
		check(slot)
		check(slot)
	}
	for slot := -3; slot < 3*bwRingSlots; slot++ { // every early slot was evicted
		check(slot)
	}
}

// TestBandwidthCacheIsBounded: after 10k distinct slots the cache holds
// only the most recent bwRingSlots of them, and a hit allocates nothing.
func TestBandwidthCacheIsBounded(t *testing.T) {
	c := Default(WithSeed(1))
	const slots = 10_000
	for slot := 0; slot < slots; slot++ {
		c.BandwidthMBAt(slot, slot%c.N())
	}
	for i := range c.bw {
		s := c.bw[i].Load()
		if s == nil || s.t < slots-bwRingSlots || len(s.mb) != c.N() {
			t.Fatalf("ring cell %d holds %+v; want one of the last %d slots", i, s, bwRingSlots)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { c.BandwidthMBAt(slots-1, 2) }); allocs != 0 {
		t.Fatalf("a cache hit allocated %v times", allocs)
	}
}

// TestBandwidthCacheConcurrentReaders: readers racing over overlapping
// slots — installing, filling and evicting ring cells under each other —
// all see the fresh draws. Run under -race by the full gate.
func TestBandwidthCacheConcurrentReaders(t *testing.T) {
	c := Default(WithSeed(11))
	const span = 3 * bwRingSlots
	want := make([][]float64, span)
	for slot := range want {
		for k := 0; k < c.N(); k++ {
			want[slot] = append(want[slot], c.drawBandwidthMB(slot, k))
		}
	}
	const readers = 4
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			for i := 0; i < 4*span; i++ {
				slot := (i*(r+1) + r*17) % span
				k := (i + r) % c.N()
				if got := c.BandwidthMBAt(slot, k); got != want[slot][k] {
					errs <- fmt.Sprintf("reader %d slot %d edge %d: %v MB, want %v", r, slot, k, got, want[slot][k])
					return
				}
			}
			errs <- ""
		}(r)
	}
	for r := 0; r < readers; r++ {
		if msg := <-errs; msg != "" {
			t.Fatal(msg)
		}
	}
}

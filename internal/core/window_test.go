package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/models"
)

func TestScaleWindow(t *testing.T) {
	slotNS := int64(10e9)
	cases := []struct {
		name     string
		window   [][]int
		windowNS int64
		want     [][]int
	}{
		{
			name:     "equal window passes through",
			window:   [][]int{{4, 0}, {1, 3}},
			windowNS: slotNS,
			want:     [][]int{{4, 0}, {1, 3}},
		},
		{
			name:     "half window doubles",
			window:   [][]int{{4, 1}},
			windowNS: slotNS / 2,
			want:     [][]int{{8, 2}},
		},
		{
			name:     "double window halves with rounding",
			window:   [][]int{{4, 3}},
			windowNS: 2 * slotNS,
			want:     [][]int{{2, 2}}, // 1.5 rounds half-away to 2
		},
		{
			name:     "sporadic demand never rounds to zero",
			window:   [][]int{{1, 0}},
			windowNS: 100 * slotNS,
			want:     [][]int{{1, 0}},
		},
		{
			name:     "degenerate window passes through",
			window:   [][]int{{2, 5}},
			windowNS: 0,
			want:     [][]int{{2, 5}},
		},
	}
	for _, tc := range cases {
		got := scaleWindow(tc.window, tc.windowNS, slotNS)
		for i := range tc.want {
			for k := range tc.want[i] {
				if got[i][k] != tc.want[i][k] {
					t.Errorf("%s: cell (%d,%d) = %d, want %d", tc.name, i, k, got[i][k], tc.want[i][k])
				}
			}
		}
	}
	// The scaled copy must never alias the caller's window.
	in := [][]int{{1, 2}}
	out := scaleWindow(in, slotNS, slotNS)
	out[0][0] = 99
	if in[0][0] != 1 {
		t.Fatal("scaleWindow aliased its input")
	}
}

func TestReplanShapeValidation(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	s, err := New(Config{Cluster: c, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Replan([][]int{{1, 1, 1}, {1, 1, 1}}, 1e9); err == nil {
		t.Fatal("wrong app-row count accepted")
	}
	if _, err := s.Replan([][]int{{1, 1}}, 1e9); err == nil {
		t.Fatal("wrong edge-cell count accepted")
	}
}

// TestReplanSequencesAsSlots pins the serving entry point's contract:
// consecutive Replan calls behave as consecutive Decide slots (monotone
// internal slot index, reuse layer engaged) and produce plans covering the
// scaled demand.
func TestReplanSequencesAsSlots(t *testing.T) {
	c := cluster.Small()
	apps := models.Catalogue(1, 3)
	s, err := New(Config{Cluster: c, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	window := [][]int{{3, 2, 4}}
	slotNS := int64(c.SlotMS()) * int64(1e6)
	for round := 0; round < 3; round++ {
		plan, err := s.Replan(window, slotNS/2) // half-slot window → demand ×2
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		assigned := 0
		for _, d := range plan.Deployments {
			assigned += d.Requests
		}
		dropped := 0
		if plan.Dropped != nil {
			for i := range plan.Dropped {
				for _, n := range plan.Dropped[i] {
					dropped += n
				}
			}
		}
		// Scaled demand is 2×(3+2+4) = 18; every request must be planned
		// (assigned or an explicit drop — never silently lost).
		if assigned+dropped != 18 {
			t.Fatalf("round %d: assigned %d + dropped %d != scaled demand 18", round, assigned, dropped)
		}
	}
	if s.serveT != 3 {
		t.Fatalf("serve slot index %d after 3 replans, want 3", s.serveT)
	}
}

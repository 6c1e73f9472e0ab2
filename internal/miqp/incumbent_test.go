package miqp

import (
	"errors"
	"math"
	"testing"
)

// knapsack is the shared fixture for the incumbent regression tests: binary
// knapsack with optimum (0,1,1), objective −20 (see TestIntegerKnapsack).
func knapsack() *Problem {
	return &Problem{
		C:       []float64{-10, -13, -7},
		Aub:     [][]float64{{3, 4, 2}},
		Bub:     []float64{6},
		Ub:      []float64{1, 1, 1},
		Integer: []bool{true, true, true},
	}
}

// TestInfeasibleIncumbentRejected pins the validation contract: SolveOpts must
// refuse an Options.Incumbent that violates the problem with a typed error,
// never silently adopt it — an unchecked infeasible bound would prune the true
// optimum.
func TestInfeasibleIncumbentRejected(t *testing.T) {
	cases := []struct {
		name string
		inc  []float64
	}{
		{"violates knapsack row", []float64{1, 1, 1}}, // weight 9 > 6
		{"outside variable bounds", []float64{0, 2, 0}},
		{"non-integral integer var", []float64{0, 0.5, 0}},
		{"non-finite entry", []float64{0, math.NaN(), 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SolveOpts(knapsack(), Options{Incumbent: tc.inc})
			if !errors.Is(err, ErrInfeasibleIncumbent) {
				t.Fatalf("err = %v (res %+v), want ErrInfeasibleIncumbent", err, res)
			}
		})
	}
}

// TestWrongLengthIncumbentRejected: a length mismatch is malformed input, not
// an infeasible point, so it reports ErrBadProblem.
func TestWrongLengthIncumbentRejected(t *testing.T) {
	if _, err := SolveOpts(knapsack(), Options{Incumbent: []float64{0, 1}}); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("err = %v, want ErrBadProblem", err)
	}
}

// TestFeasibleIncumbentAccepted: a valid seed must leave the certified answer
// unchanged — the incumbent only tightens the pruning bound.
func TestFeasibleIncumbentAccepted(t *testing.T) {
	res, err := SolveOpts(knapsack(), Options{Incumbent: []float64{1, 0, 1}}) // weight 5, obj −17
	if err != nil {
		t.Fatalf("SolveOpts: %v", err)
	}
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-20)) > 1e-7 {
		t.Fatalf("got %v obj %v, want optimal −20", res.Status, res.Obj)
	}
}

// TestSeededNodeLimitReturnsIncumbent: with the node budget exhausted before
// any node completes, a seeded solve must still return a solution at least as
// good as the seed instead of reporting infeasibility.
func TestSeededNodeLimitReturnsIncumbent(t *testing.T) {
	res, err := SolveOpts(knapsack(), Options{Incumbent: []float64{1, 0, 1}, MaxNodes: 1})
	if err != nil {
		t.Fatalf("SolveOpts: %v", err)
	}
	if res.Status == StatusInfeasible || res.Obj > -17+1e-9 {
		t.Fatalf("got %v obj %v, want ≤ −17 (the seed)", res.Status, res.Obj)
	}
}

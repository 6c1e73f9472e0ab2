package miqp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The solver takes linear objectives only. The tests in this file pin how a
// convex separable quadratic objective term still reaches it: as the
// epigraph of its piecewise-linear interpolant, added by pwlEpigraph.

// pwlEpigraph adds a continuous variable t with t ≥ the secant of f between
// each pair of consecutive breakpoints pts (ascending, spanning x's bounds)
// and returns t's column. For convex f the largest of those secants is f's
// piecewise-linear interpolant, so minimizing t yields f(x) exactly whenever
// x sits on a breakpoint — everywhere in an integer variable's range when the
// breakpoints are its integers.
func pwlEpigraph(b *Builder, name string, x int, f func(float64) float64, pts []float64) int {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range pts {
		lo, hi = math.Min(lo, f(v)), math.Max(hi, f(v))
	}
	t := b.AddVar(name, lo, hi, false)
	for k := 0; k+1 < len(pts); k++ {
		a, c := pts[k], pts[k+1]
		slope := (f(c) - f(a)) / (c - a)
		// t ≥ f(a) + slope·(x − a)  ⇔  slope·x − t ≤ slope·a − f(a)
		b.AddLe([]int{x, t}, []float64{slope, -1}, slope*a-f(a))
	}
	return t
}

// grid returns lo, lo+step, …, hi.
func grid(lo, hi, step float64) []float64 {
	var pts []float64
	for k := 0; lo+float64(k)*step <= hi+1e-12; k++ {
		pts = append(pts, lo+float64(k)*step)
	}
	return pts
}

func TestQuadraticIntegerObjective(t *testing.T) {
	// min (x−2.6)² over integers in [0,10] → x = 3.
	b := NewBuilder()
	x := b.AddVar("x", 0, 10, true)
	b.SetObj(pwlEpigraph(b, "t", x, func(v float64) float64 { return (v - 2.6) * (v - 2.6) }, grid(0, 10, 1)), 1)
	res := solveOK(t, b.Build())
	if res.Status != StatusOptimal || res.X[x] != 3 {
		t.Fatalf("got %v x=%v", res.Status, res.X)
	}
	if math.Abs(res.Obj-0.16) > 1e-9 {
		t.Fatalf("obj = %v, want (3−2.6)² = 0.16", res.Obj)
	}
}

func TestQuadraticMixedInteger(t *testing.T) {
	// min (x−1.5)² + (y−2.5)², x integer in [0,5], y continuous in [0,5].
	// Optimum: x ∈ {1,2} (either gives 0.25), y = 2.5. y's breakpoints
	// include 2.5, so its interpolant has the quadratic's minimizer and
	// minimum.
	b := NewBuilder()
	x := b.AddVar("x", 0, 5, true)
	y := b.AddVar("y", 0, 5, false)
	b.SetObj(pwlEpigraph(b, "tx", x, func(v float64) float64 { return (v - 1.5) * (v - 1.5) }, grid(0, 5, 1)), 1)
	b.SetObj(pwlEpigraph(b, "ty", y, func(v float64) float64 { return (v - 2.5) * (v - 2.5) }, grid(0, 5, 0.5)), 1)
	res := solveOK(t, b.Build())
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Obj-0.25) > 1e-5 {
		t.Fatalf("obj = %v, want 0.25 (x=%v)", res.Obj, res.X)
	}
	x0 := math.Round(res.X[x])
	if x0 != 1 && x0 != 2 {
		t.Fatalf("x0 = %v, want 1 or 2", res.X[x])
	}
	if math.Abs(res.X[y]-2.5) > 1e-5 {
		t.Fatalf("y = %v, want 2.5", res.X[y])
	}
}

func TestBuilderQuadratic(t *testing.T) {
	// min x² − 4x over [0, 10] → x = 2, obj −4.
	b := NewBuilder()
	x := b.AddVar("x", 0, 10, false)
	b.SetObj(pwlEpigraph(b, "t", x, func(v float64) float64 { return v*v - 4*v }, grid(0, 10, 1)), 1)
	res := solveOK(t, b.Build())
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-4)) > 1e-5 {
		t.Fatalf("obj = %v, want -4", res.Obj)
	}
	if math.Abs(res.X[x]-2) > 1e-5 {
		t.Fatalf("x = %v, want 2", res.X[x])
	}
}

// Property: branch-and-bound on the linearized form of a convex diagonal
// quadratic objective over small integer boxes matches exhaustive
// enumeration of the quadratic itself (including infeasible instances).
func TestQuickQuadraticBranchAndBoundMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		q := make([]float64, n)
		rows := &Problem{C: make([]float64, n)}
		lb := make([]int, n)
		ub := make([]int, n)
		for j := 0; j < n; j++ {
			q[j] = 0.5 + rng.Float64()*2
			rows.C[j] = math.Round(rng.NormFloat64()*4) / 2
			lb[j] = -1 - rng.Intn(2)
			ub[j] = lb[j] + 1 + rng.Intn(3)
		}
		if rng.Intn(2) == 0 {
			row := make([]float64, n)
			for j := range row {
				row[j] = math.Round(rng.NormFloat64() * 2)
			}
			rows.Aub = append(rows.Aub, row)
			rows.Bub = append(rows.Bub, math.Round(rng.NormFloat64()*3))
		}
		term := func(j int) func(float64) float64 {
			return func(v float64) float64 { return 0.5*q[j]*v*v + rows.C[j]*v }
		}
		want := bruteForceObj(rows, lb, ub, func(x []float64) float64 {
			obj := 0.0
			for j := range x {
				obj += term(j)(x[j])
			}
			return obj
		})

		b := NewBuilder()
		for j := 0; j < n; j++ {
			b.AddVar(fmt.Sprintf("x%d", j), float64(lb[j]), float64(ub[j]), true)
		}
		for j := 0; j < n; j++ {
			b.SetObj(pwlEpigraph(b, fmt.Sprintf("t%d", j), j, term(j), grid(float64(lb[j]), float64(ub[j]), 1)), 1)
		}
		cols := make([]int, n)
		for j := range cols {
			cols[j] = j
		}
		for i, row := range rows.Aub {
			b.AddLe(cols, row, rows.Bub[i])
		}
		res, err := Solve(b.Build())
		if err != nil {
			return false
		}
		if math.IsInf(want, 1) {
			return res.Status == StatusInfeasible
		}
		return res.Status == StatusOptimal && math.Abs(res.Obj-want) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

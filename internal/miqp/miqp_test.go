package miqp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestPureLPPassThrough(t *testing.T) {
	// No integer variables → equals the LP optimum.
	p := &Problem{
		C:   []float64{-1, -1},
		Aub: [][]float64{{1, 2}, {3, 1}},
		Bub: []float64{4, 6},
		Ub:  []float64{10, 10},
	}
	res := solveOK(t, p)
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-14.0/5)) > 1e-7 {
		t.Fatalf("got %v obj %v", res.Status, res.Obj)
	}
}

func TestIntegerKnapsack(t *testing.T) {
	// max 10a + 13b + 7c, 3a + 4b + 2c ≤ 6, binary → best is a + c? check:
	// a+c: w=5, v=17; b+c: w=6, v=20; a+b: w=7 no. → optimum 20.
	p := &Problem{
		C:       []float64{-10, -13, -7},
		Aub:     [][]float64{{3, 4, 2}},
		Bub:     []float64{6},
		Ub:      []float64{1, 1, 1},
		Integer: []bool{true, true, true},
	}
	res := solveOK(t, p)
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-20)) > 1e-7 {
		t.Fatalf("got %v obj %v x %v", res.Status, res.Obj, res.X)
	}
	if math.Round(res.X[0]) != 0 || math.Round(res.X[1]) != 1 || math.Round(res.X[2]) != 1 {
		t.Fatalf("x = %v, want (0,1,1)", res.X)
	}
}

func TestGeneralIntegerVariable(t *testing.T) {
	// min -x with x ≤ 7.3 integer → x = 7.
	p := &Problem{
		C:       []float64{-1},
		Ub:      []float64{7.3},
		Integer: []bool{true},
	}
	res := solveOK(t, p)
	if res.Status != StatusOptimal || res.X[0] != 7 {
		t.Fatalf("got %v x %v", res.Status, res.X)
	}
}

func TestIntegralityGapInstance(t *testing.T) {
	// LP relax optimum is fractional; IP optimum differs.
	// max x + y s.t. 2x + 2y ≤ 3, binary → LP gives 1.5, IP gives 1.
	p := &Problem{
		C:       []float64{-1, -1},
		Aub:     [][]float64{{2, 2}},
		Bub:     []float64{3},
		Ub:      []float64{1, 1},
		Integer: []bool{true, true},
	}
	res := solveOK(t, p)
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-1)) > 1e-7 {
		t.Fatalf("got %v obj %v", res.Status, res.Obj)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 ≤ x ≤ 0.6 integer → infeasible.
	p := &Problem{
		C:       []float64{1},
		Lb:      []float64{0.4},
		Ub:      []float64{0.6},
		Integer: []bool{true},
	}
	res := solveOK(t, p)
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestInfeasibleConstraints(t *testing.T) {
	p := &Problem{
		C:       []float64{1},
		Aeq:     [][]float64{{1}},
		Beq:     []float64{0.5},
		Ub:      []float64{1},
		Integer: []bool{true},
	}
	res := solveOK(t, p)
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnboundedRoot(t *testing.T) {
	p := &Problem{C: []float64{-1}} // x ≥ 0 continuous, min -x
	res := solveOK(t, p)
	if res.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestIntegerUnboundedRejected(t *testing.T) {
	p := &Problem{C: []float64{-1}, Integer: []bool{true}}
	if _, err := Solve(p); err == nil {
		t.Fatal("integer variable without finite bounds must error")
	}
}

func TestValidation(t *testing.T) {
	cases := []*Problem{
		{C: nil},
		{C: []float64{1}, Integer: []bool{true, false}},
		{C: []float64{1}, Lb: []float64{1, 2}},
		{C: []float64{1}, Ub: []float64{}},
		{C: []float64{1}, Lb: []float64{2}, Ub: []float64{1}},
	}
	for i, p := range cases {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 14
	c := make([]float64, n)
	row := make([]float64, n)
	ub := make([]float64, n)
	integer := make([]bool, n)
	for j := 0; j < n; j++ {
		c[j] = -(1 + rng.Float64())
		row[j] = 1 + rng.Float64()
		ub[j] = 1
		integer[j] = true
	}
	p := &Problem{C: c, Aub: [][]float64{row}, Bub: []float64{float64(n) / 3}, Ub: ub, Integer: integer}
	res, err := SolveOpts(p, Options{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNodeLimit {
		t.Fatalf("status = %v, want node-limit", res.Status)
	}
}

// bruteKnapsack enumerates all binary assignments.
func bruteKnapsack(value, weight []float64, cap float64) float64 {
	n := len(value)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var v, w float64
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				v += value[j]
				w += weight[j]
			}
		}
		if w <= cap && v > best {
			best = v
		}
	}
	return best
}

func TestRandomKnapsacksAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		value := make([]float64, n)
		weight := make([]float64, n)
		c := make([]float64, n)
		ub := make([]float64, n)
		integer := make([]bool, n)
		for j := 0; j < n; j++ {
			value[j] = 1 + rng.Float64()*9
			weight[j] = 1 + rng.Float64()*9
			c[j] = -value[j]
			ub[j] = 1
			integer[j] = true
		}
		cap := rng.Float64() * 25
		p := &Problem{C: c, Aub: [][]float64{weight}, Bub: []float64{cap}, Ub: ub, Integer: integer}
		res := solveOK(t, p)
		want := -bruteKnapsack(value, weight, cap)
		if res.Status != StatusOptimal || math.Abs(res.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: obj %v want %v status %v", trial, res.Obj, want, res.Status)
		}
	}
}

// Property: returned incumbents are integer feasible and respect constraints.
func TestQuickIncumbentFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		c := make([]float64, n)
		ub := make([]float64, n)
		integer := make([]bool, n)
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = rng.NormFloat64()
			ub[j] = float64(1 + rng.Intn(4))
			integer[j] = rng.Intn(2) == 0
			row[j] = rng.Float64()
		}
		p := &Problem{C: c, Aub: [][]float64{row}, Bub: []float64{rng.Float64() * 10}, Ub: ub, Integer: integer}
		res, err := Solve(p)
		if err != nil {
			return false
		}
		if res.Status != StatusOptimal {
			return false // x=0 is always feasible here
		}
		var s float64
		for j := 0; j < n; j++ {
			x := res.X[j]
			if x < -1e-6 || x > ub[j]+1e-6 {
				return false
			}
			if integer[j] && math.Abs(x-math.Round(x)) > 1e-6 {
				return false
			}
			s += row[j] * x
		}
		return s <= p.Bub[0]+1e-5 && res.Obj <= 1e-9 // 0 is feasible → optimum ≤ 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{StatusOptimal, StatusInfeasible, StatusNodeLimit, StatusUnbounded, Status(7)} {
		if s.String() == "" {
			t.Fatal("empty status string")
		}
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	x := b.AddBinary("x")
	y := b.AddVar("y", 0, 10, true)
	if b.NumVars() != 2 || b.Name(x) != "x" || b.Name(y) != "y" {
		t.Fatalf("builder bookkeeping broken")
	}
	b.SetObj(x, -5)
	b.SetObj(y, -1)
	b.AddLe([]int{x, y}, []float64{3, 1}, 7)
	p := b.Build()
	res := solveOK(t, p)
	// max 5x + y s.t. 3x + y ≤ 7 → x=1, y=4 → obj −9.
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-9)) > 1e-7 {
		t.Fatalf("obj = %v status %v x %v", res.Obj, res.Status, res.X)
	}
}

func TestBuilderGeConstraint(t *testing.T) {
	b := NewBuilder()
	x := b.AddVar("x", 0, 10, false)
	b.SetObj(x, 1)
	b.AddGe([]int{x}, []float64{1}, 4)
	res := solveOK(t, b.Build())
	if res.Status != StatusOptimal || math.Abs(res.X[0]-4) > 1e-7 {
		t.Fatalf("x = %v, want 4", res.X)
	}
}

func TestBuilderEquality(t *testing.T) {
	b := NewBuilder()
	x := b.AddVar("x", 0, 10, true)
	y := b.AddVar("y", 0, 10, true)
	b.SetObj(x, 1)
	b.SetObj(y, 3)
	b.AddEq([]int{x, y}, []float64{1, 1}, 6)
	res := solveOK(t, b.Build())
	if res.Status != StatusOptimal || math.Abs(res.Obj-6) > 1e-7 {
		t.Fatalf("obj = %v, want 6 (x=%v)", res.Obj, res.X)
	}
}

func TestBuilderSparsePanic(t *testing.T) {
	b := NewBuilder()
	b.AddVar("x", 0, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged cols/coefs")
		}
	}()
	b.AddLe([]int{0}, []float64{1, 2}, 1)
}

// TestLinearizeProductExactness checks z = x·y on every binary/integer combo.
func TestLinearizeProductExactness(t *testing.T) {
	for _, yMax := range []float64{1, 4, 16} {
		b := NewBuilder()
		x := b.AddBinary("x")
		y := b.AddVar("y", 0, yMax, true)
		z := b.LinearizeProduct("z", x, y, yMax)
		// Maximize z subject to forcing x and y to given values.
		b.SetObj(z, -1)
		xv := b.AddVar("xpin", 0, 1, false) // dummy to keep builder exercised
		_ = xv
		for xVal := 0.0; xVal <= 1; xVal++ {
			for yVal := 0.0; yVal <= yMax; yVal += math.Max(1, yMax/4) {
				bb := NewBuilder()
				x2 := bb.AddBinary("x")
				y2 := bb.AddVar("y", 0, yMax, true)
				z2 := bb.LinearizeProduct("z", x2, y2, yMax)
				bb.SetObj(z2, -1)
				bb.AddEq([]int{x2}, []float64{1}, xVal)
				bb.AddEq([]int{y2}, []float64{1}, yVal)
				res := solveOK(t, bb.Build())
				if res.Status != StatusOptimal {
					t.Fatalf("x=%v y=%v: status %v", xVal, yVal, res.Status)
				}
				want := xVal * yVal
				if math.Abs(res.X[z2]-want) > 1e-6 {
					t.Fatalf("x=%v y=%v: z=%v want %v", xVal, yVal, res.X[z2], want)
				}
				_ = x
				_ = y
				_ = z
			}
		}
	}
}

func BenchmarkKnapsack12(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	n := 12
	c := make([]float64, n)
	row := make([]float64, n)
	ub := make([]float64, n)
	integer := make([]bool, n)
	for j := 0; j < n; j++ {
		c[j] = -(1 + rng.Float64()*9)
		row[j] = 1 + rng.Float64()*9
		ub[j] = 1
		integer[j] = true
	}
	p := &Problem{C: c, Aub: [][]float64{row}, Bub: []float64{20}, Ub: ub, Integer: integer}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

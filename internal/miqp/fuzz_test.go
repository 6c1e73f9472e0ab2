package miqp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForce enumerates every integer assignment of a fully-integer problem
// with small bounds and returns the optimum (or +Inf when infeasible).
func bruteForce(p *Problem, lb, ub []int) float64 {
	return bruteForceObj(p, lb, ub, func(x []float64) float64 {
		obj := 0.0
		for k, c := range p.C {
			obj += c * x[k]
		}
		return obj
	})
}

// bruteForceObj is bruteForce with the objective supplied as a function of
// the assignment instead of read from p.C; p contributes only its rows.
func bruteForceObj(p *Problem, lb, ub []int, objOf func(x []float64) float64) float64 {
	n := len(lb)
	x := make([]float64, n)
	best := math.Inf(1)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			for i, row := range p.Aub {
				var s float64
				for k, a := range row {
					s += a * x[k]
				}
				if s > p.Bub[i]+1e-9 {
					return
				}
			}
			for i, row := range p.Aeq {
				var s float64
				for k, a := range row {
					s += a * x[k]
				}
				if math.Abs(s-p.Beq[i]) > 1e-9 {
					return
				}
			}
			if obj := objOf(x); obj < best {
				best = obj
			}
			return
		}
		for v := lb[j]; v <= ub[j]; v++ {
			x[j] = float64(v)
			rec(j + 1)
		}
	}
	rec(0)
	return best
}

// Property: branch-and-bound matches exhaustive enumeration on random small
// fully-integer linear programs (including infeasible instances).
func TestQuickBranchAndBoundMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		p := &Problem{
			C:       make([]float64, n),
			Lb:      make([]float64, n),
			Ub:      make([]float64, n),
			Integer: make([]bool, n),
		}
		lb := make([]int, n)
		ub := make([]int, n)
		for j := 0; j < n; j++ {
			p.C[j] = math.Round(rng.NormFloat64()*4) / 2
			lb[j] = -rng.Intn(3)
			ub[j] = lb[j] + rng.Intn(4)
			p.Lb[j] = float64(lb[j])
			p.Ub[j] = float64(ub[j])
			p.Integer[j] = true
		}
		for i := 0; i < rng.Intn(3); i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = math.Round(rng.NormFloat64() * 2)
			}
			p.Aub = append(p.Aub, row)
			p.Bub = append(p.Bub, math.Round(rng.NormFloat64()*4))
		}
		if rng.Intn(3) == 0 {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(3))
			}
			p.Aeq = append(p.Aeq, row)
			p.Beq = append(p.Beq, float64(rng.Intn(5)))
		}
		want := bruteForce(p, lb, ub)
		res, err := Solve(p)
		if err != nil {
			return false
		}
		if math.IsInf(want, 1) {
			return res.Status == StatusInfeasible
		}
		return res.Status == StatusOptimal && math.Abs(res.Obj-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// Property: a mixed instance (half integer, half continuous) returns a point
// that is feasible, integral where required, and no worse than any integer
// completion found by enumeration + LP on the continuous remainder.
func TestQuickMixedIntegerSanity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		p := &Problem{
			C:       make([]float64, n),
			Ub:      make([]float64, n),
			Integer: make([]bool, n),
		}
		for j := 0; j < n; j++ {
			p.C[j] = rng.NormFloat64()
			p.Ub[j] = float64(1 + rng.Intn(3))
			p.Integer[j] = j%2 == 0
		}
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64()
		}
		p.Aub = [][]float64{row}
		p.Bub = []float64{1 + rng.Float64()*3}
		res, err := Solve(p)
		if err != nil || res.Status != StatusOptimal {
			return false // x = 0 is feasible, must be optimal
		}
		var s float64
		for j := 0; j < n; j++ {
			x := res.X[j]
			if x < -1e-7 || x > p.Ub[j]+1e-7 {
				return false
			}
			if p.Integer[j] && math.Abs(x-math.Round(x)) > 1e-6 {
				return false
			}
			s += row[j] * x
		}
		return s <= p.Bub[0]+1e-6 && res.Obj <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// FuzzWarmStartEquivalence drives the accelerated engine (warm-started
// relaxations + presolve) against the cold engine on seeded random MILPs and
// requires status and objective to agree. The committed seeds include
// instances (5, 29) where the warm re-entry's basis crash or feasibility
// repair gives up mid-tree and falls back cold — the recovery path that a
// bug in fallback bookkeeping would corrupt first.
func FuzzWarmStartEquivalence(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 5, 17, 29} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := randomMILP(rng)
		warm, err := SolveOpts(p, Options{})
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		cold, err := SolveOpts(p, Options{DisableWarmStart: true, DisablePresolve: true})
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("status warm=%v cold=%v", warm.Status, cold.Status)
		}
		if warm.Status == StatusOptimal && math.Abs(warm.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
			t.Fatalf("objective warm=%.12g cold=%.12g (stats %s)", warm.Obj, cold.Obj, warm.Stats.String())
		}
		// A fallback must never leave the counters inconsistent: every warm
		// attempt either hits or falls back.
		if s := warm.Stats; s.WarmHits+s.WarmFallbacks != s.WarmAttempts {
			t.Fatalf("warm counters inconsistent: %s", s.String())
		}
	})
}

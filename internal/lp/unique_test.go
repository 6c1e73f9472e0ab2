package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// uniqueOf solves p cold and returns its optimal result.
func uniqueOf(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	return res
}

// TestUniqueCertificate pins the four cases of the dual-nondegeneracy
// certificate: a tied optimum is not certified, a strict one is, a column
// fixed at an upper bound of 0 cannot open a tie, and a slack column with a
// zero reduced cost does.
func TestUniqueCertificate(t *testing.T) {
	// The face x1 + x2 = 2, 0.5 ≤ x1 ≤ 1.5 minimizes −x1 − x2 under
	// x1 ≤ 1.5 and x2 ≤ 1.5. Every optimal basis keeps x1, x2 and one of the
	// two bound rows' slacks basic, so the tie sits on the other slack, whose
	// reduced cost is 0, while the x1 + x2 row's slack is priced at 1.
	slackTie := &Problem{
		C:   []float64{-1, -1},
		Aub: [][]float64{{1, 1}, {1, 0}, {0, 1}},
		Bub: []float64{2, 1.5, 1.5},
	}
	if res := uniqueOf(t, slackTie); res.Unique {
		t.Errorf("tied optimum through a slack column (x = %v) certified unique", res.X)
	}
	// Weighting x2 breaks the tie: (0.5, 1.5) is the only optimum.
	strict := &Problem{
		C:   []float64{-1, -2},
		Aub: slackTie.Aub,
		Bub: slackTie.Bub,
	}
	if res := uniqueOf(t, strict); !res.Unique {
		t.Errorf("unique optimum x = %v not certified", res.X)
	} else if math.Abs(res.X[0]-0.5) > 1e-9 || math.Abs(res.X[1]-1.5) > 1e-9 {
		t.Errorf("x = %v, want (0.5, 1.5)", res.X)
	}
	// x3 has cost 0 and appears in no row: free to move, it ties the
	// optimum; fixed at ub = 0, it cannot move and the optimum stays unique.
	free := &Problem{
		C:   []float64{-1, -2, 0},
		Aub: [][]float64{{1, 1, 0}},
		Bub: []float64{1},
		Ub:  []float64{Inf, Inf, 1},
	}
	if res := uniqueOf(t, free); res.Unique {
		t.Errorf("zero-cost movable column x3 (x = %v) certified unique", res.X)
	}
	fixed := &Problem{C: free.C, Aub: free.Aub, Bub: free.Bub, Ub: []float64{Inf, Inf, 0}}
	if res := uniqueOf(t, fixed); !res.Unique {
		t.Errorf("column fixed at ub = 0 blocked the certificate (x = %v)", res.X)
	}
}

// Property: a warm re-entry whose optimum is certified unique returns the
// cold solve's x, even when the costs and right-hand sides moved since the
// basis was captured (so the basis may be neither primal nor dual feasible
// here). This is the guarantee the stage-1 cross-slot warm start rests on.
func TestQuickUniqueWarmMatchesCold(t *testing.T) {
	certified := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(6)
		parent := randomBoxLP(rng, n, m)
		root, err := SolveOpts(parent, Options{CaptureBasis: true})
		if err != nil {
			return false
		}
		if root.Status != StatusOptimal || root.Basis == nil {
			return true
		}
		child := &Problem{
			C:   append([]float64(nil), parent.C...),
			Aub: parent.Aub,
			Bub: append([]float64(nil), parent.Bub...),
			Lb:  parent.Lb, Ub: parent.Ub,
		}
		for j := range child.C {
			child.C[j] += 0.2 * rng.NormFloat64()
		}
		for i := range child.Bub {
			child.Bub[i] += 0.5 * rng.NormFloat64()
		}
		cold, err1 := Solve(child)
		var dst Basis
		warm, err2 := SolveWarmInto(child, Options{CaptureBasis: true}, nil, root.Basis, &dst)
		if err1 != nil || err2 != nil || warm.Status != cold.Status {
			return false
		}
		if warm.Status != StatusOptimal {
			return true
		}
		if warm.Basis != nil && warm.Basis != &dst {
			return false // the capture must land in dst
		}
		if !warm.Unique {
			return true
		}
		certified++
		for j := range cold.X {
			if math.Abs(warm.X[j]-cold.X[j]) > 1e-7*(1+math.Abs(cold.X[j])) {
				t.Logf("seed %d: x[%d] warm %.12g cold %.12g", seed, j, warm.X[j], cold.X[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if certified == 0 {
		t.Fatal("no warm solve was certified unique; the property was never exercised")
	}
	t.Logf("%d warm solves certified unique", certified)
}

// TestSolveWarmIntoReusesDestination checks that a chain of solves capturing
// into one Basis, each re-entering from the previous capture in place,
// allocates nothing for the basis once it has grown, and that every capture
// is a usable warm start.
func TestSolveWarmIntoReusesDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomBoxLP(rng, 8, 5)
	for j := range p.C {
		p.Lb[j], p.Ub[j] = 0, 1 // x = 0 is feasible for a positive rhs
	}
	for i := range p.Bub {
		p.Bub[i] = 1 + rng.Float64()
	}
	sc := NewScratch()
	var b Basis
	opt := Options{CaptureBasis: true}
	res, err := SolveWarmInto(p, opt, sc, nil, &b)
	if err != nil || res.Status != StatusOptimal || res.Basis != &b {
		t.Fatalf("cold capture: err %v, status %v, basis %p (dst %p)", err, res.Status, res.Basis, &b)
	}
	cols := &b.cols[0]
	for i := 0; i < 5; i++ {
		for j := range p.C {
			p.C[j] += 0.01 * rng.NormFloat64()
		}
		res, err = SolveWarmInto(p, opt, sc, &b, &b)
		if err != nil || res.Status != StatusOptimal {
			t.Fatalf("solve %d: err %v, status %v", i, err, res.Status)
		}
		if !res.Warm || res.Basis != &b {
			t.Fatalf("solve %d: warm %v, basis %p (dst %p)", i, res.Warm, res.Basis, &b)
		}
	}
	if &b.cols[0] != cols {
		t.Fatal("the destination's storage was reallocated")
	}
}

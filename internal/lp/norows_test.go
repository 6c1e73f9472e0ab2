package lp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomNoRowsLP draws a problem with no rows over a random box: each
// variable independently gets a two-sided, lower-only, upper-only or free
// bound pattern, so negative costs on open sides make some instances
// unbounded.
func randomNoRowsLP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(8)
	p := &Problem{C: make([]float64, n), Lb: make([]float64, n), Ub: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64()
		lb := -3 + 6*rng.Float64()
		ub := lb + 4*rng.Float64()
		switch rng.Intn(4) {
		case 1:
			ub = math.Inf(1)
		case 2:
			lb = math.Inf(-1)
		case 3:
			lb, ub = math.Inf(-1), math.Inf(1)
		}
		p.Lb[j], p.Ub[j] = lb, ub
	}
	return p
}

// TestQuickNoRowsMatchesOracle checks the closed form that answers problems
// without rows against the dense tableau reference, on the Problem path and
// the Form path: the same status and the same point and objective bit for
// bit, no iterations, no basis or reduced costs even when asked for, and a
// non-nil empty IneqDuals at optimality.
func TestQuickNoRowsMatchesOracle(t *testing.T) {
	unbounded, optimal := 0, 0
	opt := Options{CaptureBasis: true, WantReducedCosts: true}
	f := func(seed int64) bool {
		p := randomNoRowsLP(rand.New(rand.NewSource(seed)))
		want, err := solveDense(p, Options{})
		if err != nil {
			return false
		}
		got, err := SolveOpts(p, opt)
		if err != nil {
			return false
		}
		form, err := NewForm(p)
		if err != nil {
			return false
		}
		fgot, err := form.SolveWarm(p.Lb, p.Ub, opt, nil, nil)
		if err != nil {
			return false
		}
		for _, r := range []*Result{got, fgot} {
			if r.Status != want.Status || r.Iterations != 0 || r.Basis != nil || r.ReducedCosts != nil {
				return false
			}
			if !reflect.DeepEqual(r.X, want.X) || math.Float64bits(r.Obj) != math.Float64bits(want.Obj) {
				return false
			}
			if want.Status == StatusOptimal && (r.IneqDuals == nil || len(r.IneqDuals) != 0) {
				return false
			}
		}
		switch want.Status {
		case StatusUnbounded:
			unbounded++
		case StatusOptimal:
			optimal++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if unbounded == 0 || optimal == 0 {
		t.Fatalf("draws covered %d unbounded and %d optimal instances; want both", unbounded, optimal)
	}
}

// TestNumericalFailureIsTyped pins the kernel's failure exit. With Tol 1e-14
// the ratio test accepts the 1e-12 pivot of min −x s.t. 1e-12·x ≤ 1e-12, and
// the eta update then rejects it as too small to invert. The program itself
// is well posed — the dense reference answers x = 1 — so the failure must
// surface as ErrNumerical, through the Problem path and the Form path.
func TestNumericalFailureIsTyped(t *testing.T) {
	p := &Problem{C: []float64{-1}, Aub: [][]float64{{1e-12}}, Bub: []float64{1e-12}}
	opt := Options{Tol: 1e-14}
	ref, err := solveDense(p, opt)
	if err != nil || ref.Status != StatusOptimal || math.Abs(ref.X[0]-1) > 1e-9 {
		t.Fatalf("dense reference: %+v, %v; want x = 1", ref, err)
	}
	if _, err := SolveOpts(p, opt); !errors.Is(err, ErrNumerical) {
		t.Fatalf("SolveOpts: err = %v, want ErrNumerical", err)
	}
	form, err := NewForm(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := form.SolveWarm([]float64{0}, []float64{Inf}, opt, nil, nil); !errors.Is(err, ErrNumerical) {
		t.Fatalf("Form.SolveWarm: err = %v, want ErrNumerical", err)
	}
}

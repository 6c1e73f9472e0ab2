package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// mixedBoundsLP extends randomLP with explicit bounds covering all three
// substitution patterns: most variables keep finite lb = 0, one may become
// upper-bound-only and one free. Rows have nonnegative coefficients with
// positive rhs, so x = 0 stays feasible; free/ub-only variables can make an
// instance unbounded, which the differential tests treat as a valid outcome.
func mixedBoundsLP(rng *rand.Rand) *Problem {
	p := randomLP(rng)
	n := len(p.C)
	p.Lb = make([]float64, n)
	if rng.Intn(2) == 0 {
		j := rng.Intn(n)
		p.Lb[j] = math.Inf(-1) // ub stays finite → patUBOnly
	}
	if rng.Intn(2) == 0 {
		j := rng.Intn(n)
		p.Lb[j] = math.Inf(-1)
		p.Ub[j] = math.Inf(1) // patFree
	}
	return p
}

// TestFormColdMatchesSolveScratch: with no warm basis, Form.SolveWarm must be
// indistinguishable from SolveScratch on the equivalent Problem — field for
// field, since both run the same cold pipeline.
func TestFormColdMatchesSolveScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc1, sc2 := NewScratch(), NewScratch()
	for i := 0; i < 60; i++ {
		p := mixedBoundsLP(rng)
		f, err := NewForm(p)
		if err != nil {
			t.Fatalf("instance %d NewForm: %v", i, err)
		}
		want, err := SolveScratch(p, Options{}, sc1)
		if err != nil {
			t.Fatalf("instance %d SolveScratch: %v", i, err)
		}
		got, err := f.SolveWarm(p.Lb, p.Ub, Options{}, sc2, nil)
		if err != nil {
			t.Fatalf("instance %d Form.SolveWarm: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("instance %d: form cold solve diverged:\nproblem: %+v\nform:    %+v", i, want, got)
		}
	}
}

// TestFormWarmChainMatchesCold exercises the compiled warm path the way
// branch & bound does: capture the basis at the original bounds, tighten the
// box (same pattern), and re-enter through the Form. The warm result must
// certify the same optimum as a cold solve of the tightened problem.
func TestFormWarmChainMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sc := NewScratch()
	warmCertified := 0
	for i := 0; i < 60; i++ {
		p := mixedBoundsLP(rng)
		f, err := NewForm(p)
		if err != nil {
			t.Fatalf("instance %d NewForm: %v", i, err)
		}
		root, err := SolveScratch(p, Options{CaptureBasis: true}, sc)
		if err != nil {
			t.Fatalf("instance %d root: %v", i, err)
		}
		if root.Status != StatusOptimal {
			continue
		}
		// Tighten: shrink finite upper bounds toward the root optimum, the
		// same single-sided move branching performs.
		lb2 := append([]float64(nil), p.Lb...)
		ub2 := append([]float64(nil), p.Ub...)
		for j := range ub2 {
			if !math.IsInf(ub2[j], 1) && rng.Intn(2) == 0 {
				ub2[j] = math.Max(root.X[j]*(0.5+0.5*rng.Float64()), lb2[j])
				if math.IsInf(lb2[j], -1) {
					ub2[j] = root.X[j]
				}
			}
		}
		p2 := &Problem{C: p.C, Aeq: p.Aeq, Beq: p.Beq, Aub: p.Aub, Bub: p.Bub, Lb: lb2, Ub: ub2}
		cold, err := SolveScratch(p2, Options{}, sc)
		if err != nil {
			t.Fatalf("instance %d cold: %v", i, err)
		}
		warm, err := f.SolveWarm(lb2, ub2, Options{}, sc, root.Basis)
		if err != nil {
			t.Fatalf("instance %d warm: %v", i, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("instance %d: status warm=%v cold=%v", i, warm.Status, cold.Status)
		}
		if cold.Status == StatusOptimal {
			if math.Abs(warm.Obj-cold.Obj) > 1e-7*(1+math.Abs(cold.Obj)) {
				t.Fatalf("instance %d: obj warm=%.12g cold=%.12g", i, warm.Obj, cold.Obj)
			}
			if !warm.WarmFallback {
				warmCertified++
			}
		}
	}
	if warmCertified == 0 {
		t.Fatal("no instance certified through the compiled warm path; the test is vacuous")
	}
}

// TestFormCaptureAddsNoWork: capturing the optimal basis on the Form path
// records which columns are basic and nothing more. A solve with
// CaptureBasis must report the same Refactorizations — and every other field
// apart from Basis — as the same solve without it, both cold and when
// re-entering a tightened child from a captured basis.
func TestFormCaptureAddsNoWork(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	scOn, scOff := NewScratch(), NewScratch()
	pivoted := 0
	same := func(i int, what string, on, off *Result) {
		t.Helper()
		got := *on
		got.Basis = nil
		if !reflect.DeepEqual(&got, off) {
			t.Fatalf("instance %d %s: capture changed the result\ncapture: %+v\nplain:   %+v", i, what, &got, off)
		}
		if on.Status == StatusOptimal && on.Pivots() > 0 {
			pivoted++
		}
	}
	for i := 0; i < 60; i++ {
		p := mixedBoundsLP(rng)
		f, err := NewForm(p)
		if err != nil {
			t.Fatalf("instance %d NewForm: %v", i, err)
		}
		root, err := f.SolveWarm(p.Lb, p.Ub, Options{CaptureBasis: true}, scOn, nil)
		if err != nil {
			t.Fatalf("instance %d root: %v", i, err)
		}
		plain, err := f.SolveWarm(p.Lb, p.Ub, Options{}, scOff, nil)
		if err != nil {
			t.Fatalf("instance %d root: %v", i, err)
		}
		same(i, "cold", root, plain)
		if root.Status != StatusOptimal || root.Basis == nil {
			continue
		}
		ub2 := append([]float64(nil), p.Ub...)
		for j := range ub2 {
			if !math.IsInf(ub2[j], 1) && !math.IsInf(p.Lb[j], -1) {
				ub2[j] = math.Max(root.X[j]*0.5, p.Lb[j])
			}
		}
		opt := Options{PreferDual: true}
		plain, err = f.SolveWarm(p.Lb, ub2, opt, scOff, root.Basis)
		if err != nil {
			t.Fatalf("instance %d warm: %v", i, err)
		}
		opt.CaptureBasis = true
		child, err := f.SolveWarm(p.Lb, ub2, opt, scOn, root.Basis)
		if err != nil {
			t.Fatalf("instance %d warm: %v", i, err)
		}
		same(i, "warm", child, plain)
	}
	if pivoted < 20 {
		t.Fatalf("only %d solves pivoted; the capture check is near vacuous", pivoted)
	}
}

// TestFormPatternMismatchFallsBack: bounds whose substitution pattern differs
// from the compiled one (a free variable gaining a finite lower bound) must
// take the cold fallback — and still return the correct answer.
func TestFormPatternMismatchFallsBack(t *testing.T) {
	p := &Problem{
		C:   []float64{-1, -2},
		Aub: [][]float64{{1, 1}},
		Bub: []float64{4},
		Lb:  []float64{math.Inf(-1), 0},
		Ub:  []float64{math.Inf(1), 3},
	}
	f, err := NewForm(p)
	if err != nil {
		t.Fatal(err)
	}
	root, err := SolveScratch(p, Options{CaptureBasis: true}, NewScratch())
	if err != nil || root.Status != StatusOptimal {
		t.Fatalf("root: %v (%v)", err, root)
	}
	// Variable 0 switches patFree → patFiniteLB.
	lb2 := []float64{-1, 0}
	ub2 := []float64{math.Inf(1), 3}
	warm, err := f.SolveWarm(lb2, ub2, Options{}, NewScratch(), root.Basis)
	if err != nil {
		t.Fatalf("mismatched solve: %v", err)
	}
	if !warm.WarmFallback {
		t.Fatal("pattern mismatch did not report a warm fallback")
	}
	want, err := SolveScratch(&Problem{C: p.C, Aub: p.Aub, Bub: p.Bub, Lb: lb2, Ub: ub2}, Options{}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != want.Status || math.Abs(warm.Obj-want.Obj) > 1e-9 {
		t.Fatalf("fallback result %v/%v, want %v/%v", warm.Status, warm.Obj, want.Status, want.Obj)
	}
}

// TestNewFormRejectsMalformed: the one-time compile performs the full matrix
// validation the per-solve path skips afterwards.
func TestNewFormRejectsMalformed(t *testing.T) {
	if _, err := NewForm(&Problem{C: []float64{math.NaN()}}); err == nil {
		t.Fatal("NaN objective accepted")
	}
	if _, err := NewForm(&Problem{C: []float64{1, 2}, Aub: [][]float64{{1}}, Bub: []float64{1}}); err == nil {
		t.Fatal("ragged row accepted")
	}
}

// TestFormNilBoundsMeanDefault: nil lb/ub passed to Form.SolveWarm mean the
// default box [0, +Inf) for every variable, as the package-level SolveWarm
// reads a Problem with nil Lb/Ub. Cold, the two must agree field for field;
// warm, the nil-bound re-entry must equal the explicit-default one and
// certify the package-level optimum.
func TestFormNilBoundsMeanDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sc1, sc2 := NewScratch(), NewScratch()
	one := &Problem{C: []float64{-1}, Aub: [][]float64{{2}}, Bub: []float64{3}}
	for i := 0; i < 40; i++ {
		p := one
		if i > 0 {
			p = randomLP(rng)
			p.Lb, p.Ub = nil, nil // the rows bound every variable
		}
		f, err := NewForm(p)
		if err != nil {
			t.Fatalf("instance %d NewForm: %v", i, err)
		}
		want, err := SolveWarm(p, Options{}, sc1, nil)
		if err != nil {
			t.Fatalf("instance %d SolveWarm: %v", i, err)
		}
		got, err := f.SolveWarm(nil, nil, Options{}, sc2, nil)
		if err != nil {
			t.Fatalf("instance %d Form.SolveWarm(nil, nil): %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("instance %d: nil-bound form solve diverged:\npackage: %+v\nform:    %+v", i, want, got)
		}
		if want.Status != StatusOptimal {
			continue
		}
		root, err := SolveWarm(p, Options{CaptureBasis: true}, sc1, nil)
		if err != nil {
			t.Fatalf("instance %d capture: %v", i, err)
		}
		n := len(p.C)
		lb, ub := make([]float64, n), make([]float64, n)
		for j := range ub {
			ub[j] = math.Inf(1)
		}
		explicit, err := f.SolveWarm(lb, ub, Options{}, sc2, root.Basis)
		if err != nil {
			t.Fatalf("instance %d warm explicit bounds: %v", i, err)
		}
		warm, err := f.SolveWarm(nil, nil, Options{}, sc2, root.Basis)
		if err != nil {
			t.Fatalf("instance %d warm Form.SolveWarm(nil, nil): %v", i, err)
		}
		if !reflect.DeepEqual(explicit, warm) {
			t.Fatalf("instance %d: nil-bound warm re-entry diverged:\nexplicit: %+v\nnil:      %+v", i, explicit, warm)
		}
		if warm.Status != StatusOptimal || math.Abs(warm.Obj-want.Obj) > 1e-9*(1+math.Abs(want.Obj)) {
			t.Fatalf("instance %d: warm status %v obj %.12g, package %.12g", i, warm.Status, warm.Obj, want.Obj)
		}
	}
}

package lp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomLP draws a seeded bounded LP; nonnegative rows with nonnegative
// right-hand sides keep x = 0 feasible.
func randomLP(rng *rand.Rand) *Problem {
	n := 3 + rng.Intn(8)
	m := 1 + rng.Intn(5)
	p := &Problem{
		C:  make([]float64, n),
		Ub: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = -5 + 10*rng.Float64()
		p.Ub[j] = 1 + 9*rng.Float64()
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		var sum float64
		for j := range row {
			row[j] = 4 * rng.Float64()
			sum += row[j]
		}
		p.Aub = append(p.Aub, row)
		p.Bub = append(p.Bub, 0.3*sum*(0.5+rng.Float64()))
	}
	if rng.Intn(2) == 0 {
		// One equality row pinning the first variable inside its box.
		row := make([]float64, n)
		row[0] = 1
		p.Aeq = append(p.Aeq, row)
		p.Beq = append(p.Beq, 0.5*p.Ub[0])
	}
	return p
}

// TestSolveScratchMatchesSolve is the differential test for the scratch
// arena: solving through a caller-held (and reused) Scratch must return the
// same Result as the allocating path, field for field, across many shapes.
func TestSolveScratchMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := NewScratch()
	for i := 0; i < 50; i++ {
		p := randomLP(rng)
		want, err := Solve(p)
		if err != nil {
			t.Fatalf("instance %d Solve: %v", i, err)
		}
		got, err := SolveScratch(p, Options{}, sc)
		if err != nil {
			t.Fatalf("instance %d SolveScratch: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("instance %d: scratch solve diverged:\nfresh:   %+v\nscratch: %+v", i, want, got)
		}
	}
}

// TestSolveScratchResultsDoNotAlias ensures a Result survives later solves on
// the same Scratch: X and IneqDuals must be copied out of the arena, not
// views into it.
func TestSolveScratchResultsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := NewScratch()
	p1 := randomLP(rng)
	first, err := SolveScratch(p1, Options{}, sc)
	if err != nil {
		t.Fatal(err)
	}
	snapX := append([]float64(nil), first.X...)
	snapD := append([]float64(nil), first.IneqDuals...)
	for i := 0; i < 10; i++ {
		if _, err := SolveScratch(randomLP(rng), Options{}, sc); err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(first.X, snapX) || !reflect.DeepEqual(first.IneqDuals, snapD) {
		t.Fatalf("first result mutated by later scratch reuse:\nX    %v want %v\nduals %v want %v",
			first.X, snapX, first.IneqDuals, snapD)
	}
}

// boxOf returns p's bounds as explicit slices, the form Form.SolveWarm takes.
func boxOf(p *Problem) (lb, ub []float64) {
	lb, ub = make([]float64, len(p.C)), make([]float64, len(p.C))
	for j := range p.C {
		lb[j], ub[j] = boundsAt(p, j)
	}
	return lb, ub
}

// TestScratchReservationCoversSolve pins the arena sizing: no take of a solve
// may fall back to the heap. Every solve gets a fresh Scratch, so slack left
// by an earlier, larger reservation cannot hide an undersized one. It covers
// the instance families of the quick checks, cold and warm, on the Problem
// path and the Form path.
func TestScratchReservationCoversSolve(t *testing.T) {
	families := []struct {
		name string
		gen  func(*rand.Rand) *Problem
	}{
		{"box", func(rng *rand.Rand) *Problem { return randomBoxLP(rng, 2+rng.Intn(8), 1+rng.Intn(6)) }},
		{"box-eq", func(rng *rand.Rand) *Problem {
			p := randomBoxLP(rng, 2+rng.Intn(8), 2+rng.Intn(5))
			last := len(p.Aub) - 1
			p.Aeq, p.Beq = [][]float64{p.Aub[last]}, []float64{p.Bub[last]}
			p.Aub, p.Bub = p.Aub[:last], p.Bub[:last]
			return p
		}},
		{"lp", randomLP},
		{"mixed-bounds", mixedBoundsLP},
		{"no-rows", randomNoRowsLP},
	}
	capture := Options{CaptureBasis: true, WantReducedCosts: true}
	warmOpt := Options{CaptureBasis: true, PreferDual: true}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			warmHits := 0
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				p := fam.gen(rng)
				child := p
				if fam.name == "box" {
					child = tightenLikeBranch(rng, p)
				}
				lb, ub := boxOf(p)
				clb, cub := boxOf(child)
				form, err := NewForm(p)
				if err != nil {
					return false
				}
				var solves []*Scratch
				solve := func(run func(sc *Scratch) (*Result, error)) *Result {
					sc := NewScratch()
					solves = append(solves, sc)
					res, err := run(sc)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if res.Warm {
						warmHits++
					}
					return res
				}
				root := solve(func(sc *Scratch) (*Result, error) { return SolveScratch(p, capture, sc) })
				if root.Basis != nil {
					solve(func(sc *Scratch) (*Result, error) { return SolveWarm(child, warmOpt, sc, root.Basis) })
				}
				froot := solve(func(sc *Scratch) (*Result, error) { return form.SolveWarm(lb, ub, capture, sc, nil) })
				if froot.Basis != nil {
					solve(func(sc *Scratch) (*Result, error) { return form.SolveWarm(clb, cub, warmOpt, sc, froot.Basis) })
				}
				for _, sc := range solves {
					if sc.spills != 0 {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
			if fam.name != "no-rows" && warmHits == 0 {
				t.Fatal("no solve re-entered warm; the warm reservations went unchecked")
			}
		})
	}
}

package miqp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// regressionBuilder constructs a small binary MILP through the Builder: four
// binaries with distinct costs, a cardinality equality and two overlapping
// knapsack rows (one entered as ≥ so the sign-flip path is covered).
func regressionBuilder() *Builder {
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddBinary(fmt.Sprintf("x%d", i))
		b.SetObj(i, 0.5*float64(i)-1)
	}
	b.AddEq([]int{0, 1, 2, 3}, []float64{1, 1, 1, 1}, 2)
	b.AddLe([]int{0, 1, 3}, []float64{1.3, 2.1, 0.7}, 2.5)
	b.AddGe([]int{1, 2}, []float64{-0.4, -1.9}, -2)
	return b
}

// TestBuildRepeatable runs Build twice on one builder and diffs the outputs:
// two Build calls must produce deeply equal Problems.
func TestBuildRepeatable(t *testing.T) {
	b := regressionBuilder()
	first := b.Build()
	second := b.Build()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("Build not repeatable:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestBuildSharedMatchesBuild pins the two materialization paths to the same
// dense Problem, including after a Reset/rebuild cycle that reuses the
// builder-owned slabs.
func TestBuildSharedMatchesBuild(t *testing.T) {
	b := regressionBuilder()
	want := b.Build()
	if got := b.BuildShared(); !reflect.DeepEqual(want, got) {
		t.Fatalf("BuildShared differs from Build:\nshared: %+v\nbuild:  %+v", got, want)
	}
	b.Reset()
	for i := 0; i < 4; i++ {
		b.AddBinary(fmt.Sprintf("x%d", i))
		b.SetObj(i, 0.5*float64(i)-1)
	}
	b.AddEq([]int{0, 1, 2, 3}, []float64{1, 1, 1, 1}, 2)
	b.AddLe([]int{0, 1, 3}, []float64{1.3, 2.1, 0.7}, 2.5)
	b.AddGe([]int{1, 2}, []float64{-0.4, -1.9}, -2)
	if got := b.BuildShared(); !reflect.DeepEqual(want, got) {
		t.Fatalf("BuildShared after Reset differs from Build:\nshared: %+v\nbuild:  %+v", got, want)
	}
}

// quadTerms is a fixed quadratic objective over the four binaries of
// regressionBuilder. quadBuilder linearizes it the way the scheduler
// linearizes its bilinear terms: a diagonal term is linear on a binary
// (x² = x) and each cross term becomes a LinearizeProduct variable.
var quadTerms = []struct {
	i, j int
	coef float64
}{
	{0, 0, 1.3}, {1, 1, 2.1}, {2, 2, 0.7}, {3, 3, 1.9},
	{0, 1, 0.4}, {0, 2, -0.3}, {1, 3, 0.25}, {2, 3, -0.15}, {3, 0, 0.05},
}

// quadBuilder is regressionBuilder with quadTerms added to its objective.
func quadBuilder() *Builder {
	b := regressionBuilder()
	for _, term := range quadTerms {
		if term.i == term.j {
			b.SetObj(term.i, term.coef)
			continue
		}
		z := b.LinearizeProduct(fmt.Sprintf("x%d*x%d", term.i, term.j), term.i, term.j, 1)
		b.SetObj(z, term.coef)
	}
	return b
}

// TestSolveQuadRepeatable solves the linearized quadratic regression program
// twice (serial and with a worker pool) and diffs the full results: status,
// solution vector, objective, and node count must be bit-identical run to
// run. The optimum must also equal the quadratic's, found by enumeration.
func TestSolveQuadRepeatable(t *testing.T) {
	rows := regressionBuilder().Build()
	want := bruteForceObj(rows, []int{0, 0, 0, 0}, []int{1, 1, 1, 1}, func(x []float64) float64 {
		obj := 0.0
		for j, c := range rows.C {
			obj += c * x[j]
		}
		for _, term := range quadTerms {
			obj += term.coef * x[term.i] * x[term.j]
		}
		return obj
	})
	for _, workers := range []int{1, 4} {
		first, err := SolveOpts(quadBuilder().Build(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d first solve: %v", workers, err)
		}
		second, err := SolveOpts(quadBuilder().Build(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d second solve: %v", workers, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("workers=%d solve not repeatable:\nfirst:  %+v\nsecond: %+v", workers, first, second)
		}
		if first.Status != StatusOptimal || math.Abs(first.Obj-want) > 1e-9 {
			t.Fatalf("workers=%d: %v obj %v, want the quadratic optimum %v", workers, first.Status, first.Obj, want)
		}
	}
}

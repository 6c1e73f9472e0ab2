package lp

// Tests for the sparse revised simplex engine: the LU+eta factorization is
// checked directly against explicit dense solves, the engine is checked
// differentially against the dense tableau oracle, dual re-entry is fuzzed
// through branch-like bound mutation sequences, and the scratch arena is
// checked for aliasing between solves.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// denseSolveRef solves B·x = rhs by Gaussian elimination with partial
// pivoting on an explicit copy — the reference the factorization is measured
// against. B is column-major m×m.
func denseSolveRef(bcol []float64, m int, rhs []float64) []float64 {
	a := make([]float64, m*m)
	copy(a, bcol)
	x := append([]float64(nil), rhs...)
	for k := 0; k < m; k++ {
		p := k
		for r := k + 1; r < m; r++ {
			if math.Abs(a[k*m+r]) > math.Abs(a[k*m+p]) {
				p = r
			}
		}
		if p != k {
			for c := 0; c < m; c++ {
				a[c*m+k], a[c*m+p] = a[c*m+p], a[c*m+k]
			}
			x[k], x[p] = x[p], x[k]
		}
		piv := a[k*m+k]
		for r := k + 1; r < m; r++ {
			f := a[k*m+r] / piv
			if f == 0 {
				continue
			}
			for c := k; c < m; c++ {
				a[c*m+r] -= f * a[c*m+k]
			}
			x[r] -= f * x[k]
		}
	}
	for k := m - 1; k >= 0; k-- {
		s := x[k]
		for c := k + 1; c < m; c++ {
			s -= a[c*m+k] * x[c]
		}
		x[k] = s / a[k*m+k]
	}
	return x
}

// matVec computes y = B·x (column-major B) into a fresh slice.
func matVec(bcol []float64, m int, x []float64) []float64 {
	y := make([]float64, m)
	for c := 0; c < m; c++ {
		v := x[c]
		if v == 0 {
			continue
		}
		for r := 0; r < m; r++ {
			y[r] += bcol[c*m+r] * v
		}
	}
	return y
}

// matTVec computes y = Bᵀ·x.
func matTVec(bcol []float64, m int, x []float64) []float64 {
	y := make([]float64, m)
	for c := 0; c < m; c++ {
		var s float64
		for r := 0; r < m; r++ {
			s += bcol[c*m+r] * x[r]
		}
		y[c] = s
	}
	return y
}

// randomBasisMatrix draws a well-conditioned column-major m×m matrix shaped
// like a BIRP basis: a mix of unit slack columns (one nonzero) and sparse
// structural columns with a dominant diagonal.
func randomBasisMatrix(rng *rand.Rand, m int) []float64 {
	b := make([]float64, m*m)
	for c := 0; c < m; c++ {
		if rng.Intn(3) == 0 { // slack column: exercises the anyMult skip
			b[c*m+c] = 1
			continue
		}
		b[c*m+c] = 3 + rng.Float64()
		for r := 0; r < m; r++ {
			if r != c && rng.Intn(3) == 0 {
				b[c*m+r] = rng.NormFloat64() * 0.5
			}
		}
	}
	return b
}

// TestFactorLUEtaAgainstExplicitInverse is the factorization's core property:
// through an initial factorize and a sequence of eta (product-form) updates,
// ftran must solve B·z = rhs and btran must solve Bᵀ·y = rhs, where B is the
// explicitly maintained dense basis with replaced columns. The reference
// solutions come from an independent dense Gaussian elimination, so this
// checks the LU factors, both triangular-solve sparsity extents (lLast,
// uFirst), the BTRAN first-nonzero skip, and the eta file in one property.
func TestFactorLUEtaAgainstExplicitInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(14)
		bcol := randomBasisMatrix(rng, m)
		var f basisFactor
		ok := f.factorize(m, func(i int, col []float64) {
			for r := 0; r < m; r++ {
				if v := bcol[i*m+r]; v != 0 {
					col[r] = v
				}
			}
		}, luColdSingularTol)
		if !ok {
			t.Fatalf("trial %d: factorize rejected a well-conditioned basis", trial)
		}
		check := func(stage int) {
			for probe := 0; probe < 3; probe++ {
				rhs := make([]float64, m)
				switch probe {
				case 0: // unit vector: the sparse-rhs regime FTRAN/BTRAN optimize for
					rhs[rng.Intn(m)] = 1
				case 1:
					for i := range rhs {
						rhs[i] = rng.NormFloat64()
					}
				case 2: // sparse rhs with exact zeros
					for i := range rhs {
						if rng.Intn(3) == 0 {
							rhs[i] = rng.NormFloat64()
						}
					}
				}
				z := append([]float64(nil), rhs...)
				f.ftran(z)
				want := denseSolveRef(bcol, m, rhs)
				for i := range z {
					if math.Abs(z[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
						t.Fatalf("trial %d stage %d probe %d: ftran[%d]=%g want %g (etas=%d)",
							trial, stage, probe, i, z[i], want[i], f.etaCount())
					}
				}
				y := append([]float64(nil), rhs...)
				f.btran(y)
				back := matTVec(bcol, m, y)
				for i := range back {
					if math.Abs(back[i]-rhs[i]) > 1e-8*(1+math.Abs(rhs[i])) {
						t.Fatalf("trial %d stage %d probe %d: Bᵀ·btran(rhs) row %d = %g want %g",
							trial, stage, probe, i, back[i], rhs[i])
					}
				}
			}
		}
		check(0)
		// Eta updates: replace basis columns one at a time, exactly as a
		// simplex pivot does (w = FTRAN of the entering column).
		for upd := 1; upd <= 6; upd++ {
			r := rng.Intn(m)
			enter := make([]float64, m)
			enter[r] = 2 + rng.Float64() // keep the pivot w_r well away from 0
			for i := 0; i < m; i++ {
				if i != r && rng.Intn(2) == 0 {
					enter[i] = rng.NormFloat64()
				}
			}
			w := append([]float64(nil), enter...)
			f.ftran(w)
			if !f.appendEta(r, w) {
				continue // tiny pivot: a real solve would refactorize
			}
			copy(bcol[r*m:(r+1)*m], enter)
			check(upd)
		}
	}
}

// TestQuickRevisedMatchesDense is the engine differential: on random boxed
// instances (with occasional equality rows) the revised engine and the dense
// tableau reference (solveDense, dense_test.go) must agree on status, and at
// optimality on the objective, with the revised engine's point feasible for
// the original problem. Pivot trajectories legitimately differ, so X is only
// checked for feasibility.
func TestQuickRevisedMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(6)
		p := randomBoxLP(rng, n, m)
		if rng.Intn(3) == 0 && m > 1 {
			// Steal an inequality row into the equality block.
			last := len(p.Aub) - 1
			p.Aeq = append(p.Aeq, p.Aub[last])
			p.Beq = append(p.Beq, p.Bub[last])
			p.Aub, p.Bub = p.Aub[:last], p.Bub[:last]
		}
		rev, err1 := SolveOpts(p, Options{})
		den, err2 := solveDense(p, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if rev.Status == StatusIterLimit || den.Status == StatusIterLimit {
			return true // budget exhaustion is not an agreement failure
		}
		if rev.Status != den.Status {
			return false
		}
		if rev.Status != StatusOptimal {
			return true
		}
		if math.Abs(rev.Obj-den.Obj) > 1e-6*(1+math.Abs(den.Obj)) {
			return false
		}
		for j := range p.C {
			if rev.X[j] < p.Lb[j]-1e-7 || rev.X[j] > p.Ub[j]+1e-7 {
				return false
			}
		}
		for i, row := range p.Aub {
			var lhs float64
			for j, a := range row {
				lhs += a * rev.X[j]
			}
			if lhs > p.Bub[i]+1e-6 {
				return false
			}
		}
		for i, row := range p.Aeq {
			var lhs float64
			for j, a := range row {
				lhs += a * rev.X[j]
			}
			if math.Abs(lhs-p.Beq[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDualReentry drives the dual-simplex re-entry path through fuzzer-chosen
// bound mutation sequences — the branch & bound access pattern (tighten,
// tighten deeper, jump to a sibling) plus shapes the fuzzer invents. At every
// step the warm PreferDual solve must agree with a cold solve of the same
// child: same status, same objective at optimality, feasible point. The basis
// is re-captured from each optimal warm solve, so mutations chain through
// re-entered bases exactly as the node loop does.
func FuzzDualReentry(f *testing.F) {
	f.Add(int64(1), []byte{0x12, 0x8b, 0x31, 0x04})
	f.Add(int64(7), []byte{0xff, 0x00, 0x55, 0xaa, 0x17, 0x63})
	f.Add(int64(23), []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Fuzz(func(t *testing.T, seed int64, muts []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		m := 1 + rng.Intn(5)
		base := randomBoxLP(rng, n, m)
		sc := NewScratch()
		root, err := SolveScratch(base, Options{CaptureBasis: true}, sc)
		if err != nil {
			t.Fatalf("root: %v", err)
		}
		if root.Status != StatusOptimal {
			t.Skip("root not optimal")
		}
		basis := root.Basis
		cur := &Problem{
			C: base.C, Aub: base.Aub, Bub: base.Bub,
			Lb: append([]float64(nil), base.Lb...),
			Ub: append([]float64(nil), base.Ub...),
		}
		if len(muts) > 24 {
			muts = muts[:24]
		}
		for step, b := range muts {
			j := int(b>>2) % n
			frac := float64(b&3) / 4
			switch b % 3 {
			case 0: // tighten lower bound to an interior point
				cur.Lb[j] += (cur.Ub[j] - cur.Lb[j]) * frac
			case 1: // tighten upper bound
				cur.Ub[j] -= (cur.Ub[j] - cur.Lb[j]) * frac
			case 2: // sibling jump: restore the variable's original box
				cur.Lb[j], cur.Ub[j] = base.Lb[j], base.Ub[j]
			}
			cold, err1 := Solve(cur)
			warm, err2 := SolveWarm(cur, Options{PreferDual: true, CaptureBasis: true}, sc, basis)
			if err1 != nil || err2 != nil {
				t.Fatalf("step %d: cold err %v warm err %v", step, err1, err2)
			}
			if cold.Status == StatusIterLimit || warm.Status == StatusIterLimit {
				continue
			}
			if warm.Status != cold.Status {
				t.Fatalf("step %d: warm status %v, cold %v (fallback=%v)",
					step, warm.Status, cold.Status, warm.WarmFallback)
			}
			if cold.Status != StatusOptimal {
				continue
			}
			if math.Abs(warm.Obj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
				t.Fatalf("step %d: warm obj %g, cold %g", step, warm.Obj, cold.Obj)
			}
			for v := range cur.C {
				if warm.X[v] < cur.Lb[v]-1e-7 || warm.X[v] > cur.Ub[v]+1e-7 {
					t.Fatalf("step %d: warm X[%d]=%g outside [%g, %g]",
						step, v, warm.X[v], cur.Lb[v], cur.Ub[v])
				}
			}
			if warm.Basis != nil {
				basis = warm.Basis
			}
		}
	})
}

// TestDegenerateDualReentryTerminates pins anti-cycling on the dual re-entry
// path. The fixture is massively degenerate — several ≤-rows through the
// starting vertex with zero rhs, so dual ratio tests tie everywhere — and the
// re-entry chain tightens bounds into the degenerate corner. Bland's rule
// must still terminate every solve within the iteration budget, agreeing
// with the cold engine at each step.
func TestDegenerateDualReentryTerminates(t *testing.T) {
	n := 4
	p := &Problem{
		C:  []float64{-1, -1, -1, -1},
		Lb: make([]float64, n),
		Ub: []float64{1, 1, 1, 1},
		Aub: [][]float64{
			{1, -1, 0, 0},
			{0, 1, -1, 0},
			{0, 0, 1, -1},
			{1, 1, -1, -1},
			{1, -1, 1, -1},
			{1, 1, 1, 1},
		},
		Bub: []float64{0, 0, 0, 0, 0, 2},
	}
	sc := NewScratch()
	root, err := SolveScratch(p, Options{CaptureBasis: true}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if root.Status != StatusOptimal {
		t.Fatalf("root status %v", root.Status)
	}
	basis := root.Basis
	ubSeq := []float64{0.75, 0.5, 0.5, 0.25, 0.125, 0, 0}
	for step, ub := range ubSeq {
		child := &Problem{
			C: p.C, Aub: p.Aub, Bub: p.Bub,
			Lb: p.Lb,
			Ub: []float64{ub, 1, 1, 1},
		}
		if step >= 3 {
			child.Ub[1] = ub // second variable joins the squeeze
		}
		cold, err1 := Solve(child)
		warm, err2 := SolveWarm(child, Options{PreferDual: true, CaptureBasis: true}, sc, basis)
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: cold err %v warm err %v", step, err1, err2)
		}
		if warm.Status == StatusIterLimit {
			t.Fatalf("step %d: dual re-entry hit the iteration limit on a degenerate fixture (cycling?)", step)
		}
		if warm.Status != cold.Status {
			t.Fatalf("step %d: warm status %v, cold %v", step, warm.Status, cold.Status)
		}
		if cold.Status == StatusOptimal && math.Abs(warm.Obj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
			t.Fatalf("step %d: warm obj %g, cold %g", step, warm.Obj, cold.Obj)
		}
		if warm.Basis != nil {
			basis = warm.Basis
		}
	}
}

// TestRevisedScratchNoAliasing guards the arena discipline the revised
// engine's new work vectors (CSR sweeps into alpha, stored exit reduced
// costs, LU storage) must obey: results returned from a scratch solve —
// X, ReducedCosts, and the captured Basis including its d vector — must
// survive the scratch being reused for a differently-shaped solve, and a
// re-solve of the first problem in the dirty scratch must be bit-identical
// to the fresh solve. SolveWarm must also leave the caller's basis intact.
func TestRevisedScratchNoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	sc := NewScratch()
	opt := Options{CaptureBasis: true, WantReducedCosts: true}
	var p1 *Problem
	var r1 *Result
	for { // draw until the instance is optimal (random boxes can be infeasible)
		p1 = randomBoxLP(rng, 6, 4)
		var err error
		r1, err = SolveScratch(p1, opt, sc)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Status == StatusOptimal && r1.Basis != nil {
			break
		}
	}
	p2 := randomBoxLP(rng, 11, 9) // bigger shape: forces arena regrow/reuse
	x := append([]float64(nil), r1.X...)
	rc := append([]float64(nil), r1.ReducedCosts...)
	cols := append([]int(nil), r1.Basis.cols...)
	d := append([]float64(nil), r1.Basis.d...)
	if _, err := SolveScratch(p2, opt, sc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, r1.X) || !reflect.DeepEqual(rc, r1.ReducedCosts) {
		t.Fatal("p2 solve in the same scratch mutated p1's result slices")
	}
	if !reflect.DeepEqual(cols, r1.Basis.cols) || !reflect.DeepEqual(d, r1.Basis.d) {
		t.Fatal("p2 solve in the same scratch mutated p1's captured basis")
	}
	r3, err := SolveScratch(p1, opt, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Fatalf("re-solve in a dirty scratch diverged from the fresh solve:\nfresh: %+v\ndirty: %+v", r1, r3)
	}
	// Warm re-entry must read, never write, the caller's basis.
	child := &Problem{
		C: p1.C, Aub: p1.Aub, Bub: p1.Bub,
		Lb: append([]float64(nil), p1.Lb...),
		Ub: append([]float64(nil), p1.Ub...),
	}
	child.Ub[0] = (child.Lb[0] + child.Ub[0]) / 2
	if _, err := SolveWarm(child, Options{PreferDual: true}, sc, r1.Basis); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols, r1.Basis.cols) || !reflect.DeepEqual(d, r1.Basis.d) {
		t.Fatal("SolveWarm mutated the caller's basis")
	}
}

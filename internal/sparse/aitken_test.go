package sparse

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestAitkenMatchesPlainFixedPoint checks the extrapolated damped walk
// converges to the same stationary distribution as the plain driver,
// in fewer sweeps, on power-law graphs with dangling nodes (the reseed
// path for the pipelined dangling mass).
func TestAitkenMatchesPlainFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3; trial++ {
		g := randomPowerLawGraph(t, rng, 800+rng.Intn(1500))
		tr := NewTransition(g, nil)
		teleport := make([]float64, tr.N())
		Uniform(teleport)
		opts := IterOptions{Tol: 1e-11, MaxIter: 500}

		plain, pst, err := DampedWalk(tr, 0.85, teleport, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.AitkenEvery = 4
		accel, ast, err := DampedWalk(tr, 0.85, teleport, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !pst.Converged || !ast.Converged {
			t.Fatalf("trial %d: converged plain=%v accel=%v", trial, pst.Converged, ast.Converged)
		}
		// Both residuals are < Tol at their fixed point, so the vectors
		// agree to ~Tol/(1-d).
		if d := MaxDiff(plain, accel); d > 1e-9 {
			t.Errorf("trial %d: accelerated solve differs by %g", trial, d)
		}
		if ast.Iterations > pst.Iterations {
			t.Errorf("trial %d: extrapolated used %d sweeps, plain used %d",
				trial, ast.Iterations, pst.Iterations)
		}
		if ast.Extrapolations == 0 {
			t.Errorf("trial %d: no extrapolation accepted in %d sweeps", trial, ast.Iterations)
		}
	}
}

// TestAitkenGuardNeverDiverges feeds the extrapolated driver a step
// for which Δ² assumptions are garbage (a non-geometric, oscillating
// contraction). The guard must reject the bad trials so the final
// residual is still below tolerance and the iterate matches the plain
// driver's fixed point.
func TestAitkenGuardNeverDiverges(t *testing.T) {
	// Oscillating contraction toward 0.25: the error flips sign every
	// iteration, so the Δ² denominator models nothing useful.
	k := 0
	mkStep := func() ResidualStepFunc {
		return func(dst, src []float64) float64 {
			k++
			var res float64
			for i, v := range src {
				e := v - 0.25
				f := -0.6 * e // sign-flipping contraction
				dst[i] = 0.25 + f
				res += math.Abs(dst[i] - v)
			}
			return res
		}
	}
	opts := IterOptions{Tol: 1e-10, MaxIter: 300, AitkenEvery: 3}
	init := []float64{1, 0.5, 0}
	got, st, err := FixedPointExtrapolated(context.Background(), nil, init, mkStep(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("guarded driver failed to converge: %+v", st)
	}
	for i, v := range got {
		if math.Abs(v-0.25) > 1e-9 {
			t.Errorf("component %d = %v, want 0.25", i, v)
		}
	}
	// The plain driver must not be beaten by more than the trial-sweep
	// overhead bound — and crucially the guarded driver can never need
	// unboundedly more sweeps.
	_, pst, err := FixedPointResidual(init, mkStep(), IterOptions{Tol: 1e-10, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Rejected trials cost at most one sweep per AitkenEvery plain sweeps.
	bound := pst.Iterations + pst.Iterations/3 + 2
	if st.Iterations > bound {
		t.Errorf("guarded driver took %d sweeps, plain %d (bound %d)", st.Iterations, pst.Iterations, bound)
	}
}

// TestAitkenDisabledMatchesResidualDriver checks AitkenEvery == 0
// routes to the plain driver bit-for-bit.
func TestAitkenDisabledMatchesResidualDriver(t *testing.T) {
	g := benchGraph(t, 500)
	tr := NewTransition(g, nil)
	teleport := make([]float64, tr.N())
	Uniform(teleport)
	opts := IterOptions{Tol: 1e-10, MaxIter: 200}
	a, ast, err := DampedWalk(tr, 0.85, teleport, opts)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, tr.N())
	b, bst, err := FixedPointExtrapolated(context.Background(), nil, teleport, func(dst, src []float64) float64 {
		tr.Prescale(xs, src)
		res, _, _ := tr.DampedStep(dst, src, xs, teleport, 0.85, tr.DanglingMass(src))
		return res
	}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ast.Iterations != bst.Iterations {
		t.Fatalf("iterations %d vs %d", ast.Iterations, bst.Iterations)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("component %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestIterOptionsValidation covers the new fields' validation.
func TestIterOptionsValidation(t *testing.T) {
	for _, opts := range []IterOptions{
		{Tol: -1},
		{AitkenEvery: -2},
	} {
		if _, _, err := FixedPointResidual([]float64{1}, func(dst, src []float64) float64 {
			dst[0] = src[0]
			return 0
		}, opts); err == nil {
			t.Errorf("options %+v accepted", opts)
		}
	}
}

package sparse

import (
	"math/rand"
	"testing"

	"scholarrank/internal/graph"
)

func gsGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	const n = 500
	b := graph.NewBuilder(n, false)
	for i := 1; i < n; i++ {
		for r := 0; r < 4; r++ {
			_ = b.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
		}
	}
	return b.Build()
}

func TestGaussSeidelTrace(t *testing.T) {
	tr := NewTransition(gsGraph(t), nil)
	tele := make([]float64, tr.N())
	Uniform(tele)
	var events int
	opts := IterOptions{Tol: 1e-10, Trace: true, OnIteration: func(IterEvent) { events++ }}
	x, st, err := tr.GaussSeidelPageRank(0.85, tele, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	if len(st.ResidualTrace) != st.Iterations {
		t.Errorf("trace %d vs iterations %d", len(st.ResidualTrace), st.Iterations)
	}
	// The solve runs on the shared driver, so the per-iteration hook,
	// the wall time and the relative tolerance all apply.
	if events != st.Iterations || st.Elapsed <= 0 {
		t.Errorf("%d OnIteration events over %d iterations, elapsed %v", events, st.Iterations, st.Elapsed)
	}
	opts.RelTol = 1e-3
	if _, rel, err := tr.GaussSeidelPageRank(0.85, tele, opts); err != nil || !rel.Converged || rel.Iterations >= st.Iterations {
		t.Errorf("RelTol 1e-3 took %d iterations (converged %v, err %v), absolute tolerance %d", rel.Iterations, rel.Converged, err, st.Iterations)
	}
	if s := Sum(x); s < 0.999 || s > 1.001 {
		t.Errorf("result mass %v", s)
	}
	// Residuals of a contraction decrease monotonically after the
	// first couple of sweeps.
	for i := 2; i < len(st.ResidualTrace); i++ {
		if st.ResidualTrace[i] > st.ResidualTrace[i-1]*1.01 {
			t.Errorf("residual rose at sweep %d", i)
			break
		}
	}
}

func TestGaussSeidelMaxIter(t *testing.T) {
	tr := NewTransition(gsGraph(t), nil)
	tele := make([]float64, tr.N())
	Uniform(tele)
	_, st, err := tr.GaussSeidelPageRank(0.85, tele, IterOptions{Tol: 1e-30, MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged || st.Iterations != 3 {
		t.Errorf("stats = %+v, want unconverged after 3", st)
	}
}

func TestGaussSeidelBadOptions(t *testing.T) {
	tr := NewTransition(gsGraph(t), nil)
	tele := make([]float64, tr.N())
	Uniform(tele)
	if _, _, err := tr.GaussSeidelPageRank(0.85, tele, IterOptions{Tol: -1}); err == nil {
		t.Error("negative Tol accepted")
	}
}

func TestDampedWalkFromWarmStart(t *testing.T) {
	tr := NewTransition(gsGraph(t), nil)
	tele := make([]float64, tr.N())
	Uniform(tele)
	cold, coldStats, err := DampedWalk(tr, 0.85, tele, IterOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the solution itself: converges immediately to
	// the same point.
	warm, warmStats, err := DampedWalkFrom(tr, 0.85, tele, cold, IterOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Iterations > 2 {
		t.Errorf("warm start took %d iterations", warmStats.Iterations)
	}
	if d := MaxDiff(cold, warm); d > 1e-10 {
		t.Errorf("warm deviates by %v", d)
	}
	if coldStats.Iterations <= warmStats.Iterations {
		t.Errorf("cold %d should exceed warm %d", coldStats.Iterations, warmStats.Iterations)
	}
}

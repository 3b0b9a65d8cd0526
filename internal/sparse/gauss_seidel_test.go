package sparse

import (
	"math/rand"
	"testing"

	"scholarrank/internal/graph"
)

// gsGraph is a citation-shaped graph in chronological id order, with
// one citation in ten pointing forward in time so that a Gauss–Seidel
// walk over it needs more than its two sweeps on a strict DAG.
func gsGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	const n = 500
	b := graph.NewBuilder(n, false)
	for i := 1; i < n-1; i++ {
		for r := 0; r < 4; r++ {
			j := rng.Intn(i)
			if rng.Intn(10) == 0 {
				j = i + 1 + rng.Intn(n-i-1)
			}
			_ = b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.Build()
}

// gsWalk is DampedWalk under the default sweep schedule.
func gsWalk(t testing.TB, tr *Transition, teleport []float64, opts IterOptions) ([]float64, IterStats, error) {
	t.Helper()
	st, err := tr.WithSchedule(NewSweepSchedule(tr))
	if err != nil {
		t.Fatal(err)
	}
	return DampedWalk(st, 0.85, teleport, opts)
}

func TestGaussSeidelTrace(t *testing.T) {
	tr := NewTransition(gsGraph(t), nil)
	tele := make([]float64, tr.N())
	Uniform(tele)
	var events int
	opts := IterOptions{Tol: 1e-10, Trace: true, OnIteration: func(IterEvent) { events++ }}
	x, st, err := gsWalk(t, tr, tele, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	if len(st.ResidualTrace) != st.Iterations {
		t.Errorf("trace %d vs iterations %d", len(st.ResidualTrace), st.Iterations)
	}
	// The solve runs on the shared driver, so the per-iteration hook
	// and the wall time apply.
	if events != st.Iterations || st.Elapsed <= 0 {
		t.Errorf("%d OnIteration events over %d iterations, elapsed %v", events, st.Iterations, st.Elapsed)
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
	_, st, err := gsWalk(t, tr, tele, IterOptions{Tol: 1e-30, MaxIter: 3})
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
	if _, _, err := gsWalk(t, tr, tele, IterOptions{Tol: -1}); err == nil {
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

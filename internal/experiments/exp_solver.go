package experiments

import (
	"fmt"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/eval"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
)

func init() {
	register(Experiment{ID: "F7", Title: "Solver ablation: power iteration vs Gauss-Seidel", Run: runSolver})
}

// runSolver compares the two PageRank solvers at several tolerances —
// the ablation behind DESIGN.md §9's chronological Gauss–Seidel
// sweep. The power-iteration side is the Jacobi walk over a fresh
// citation operator; the Gauss–Seidel side is the pagerank scorer,
// which walks the network's own. Expected shape: identical rankings
// (Kendall tau ≈ 1), and Gauss–Seidel in about two sweeps at every
// tolerance on the generated corpus, whose citations all point to
// lower ids.
func runSolver(opts Options) ([]*Table, error) {
	c, err := BuildCorpus(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	net := hetnet.Build(c.Store)
	view := net.SolverView()
	jacobi := sparse.NewTransition(view.Citations, nil) // Jacobi sweeps
	uniform := make([]float64, jacobi.N())
	sparse.Uniform(uniform)
	t := &Table{
		ID:      "F7",
		Title:   "PageRank solver comparison (medium corpus)",
		Columns: []string{"tolerance", "power-iters", "power-ms", "gs-iters", "gs-ms", "kendall-tau"},
		Notes: []string{
			"Gauss-Seidel sweeps newest-to-oldest, exploiting the chronological article ids",
		},
	}
	for _, tol := range []float64{1e-6, 1e-9, 1e-12} {
		o := evalOptions(opts.Workers)
		o.Iter = sparse.IterOptions{Tol: tol, MaxIter: 1000}
		startP := time.Now()
		power, powerStats, err := sparse.DampedWalk(jacobi, rank.DefaultDamping, uniform, o.Iter)
		if err != nil {
			return nil, fmt.Errorf("experiments: solver power: %w", err)
		}
		powerMs := float64(time.Since(startP).Milliseconds())
		startG := time.Now()
		gs, err := core.RankScorer(net, core.ScorerPageRank, nil, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: solver gs: %w", err)
		}
		gsMs := float64(time.Since(startG).Milliseconds())
		tau, err := eval.KendallTau(view.Perm().Restored(power), gs.Importance)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0e", tol), powerStats.Iterations, powerMs,
			gs.PrestigeStats.Iterations, gsMs, tau)
	}
	return []*Table{t}, nil
}

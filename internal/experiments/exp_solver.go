package experiments

import (
	"fmt"
	"time"

	"scholarrank/internal/eval"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
)

func init() {
	register(Experiment{ID: "F7", Title: "Solver ablation: power iteration vs Gauss-Seidel", Run: runSolver})
}

// runSolver compares the two PageRank solvers at several tolerances —
// the ablation behind DESIGN.md §9's chronological Gauss–Seidel
// schedule. Expected shape: identical rankings (Kendall tau ≈ 1), and
// Gauss–Seidel in two sweeps at every tolerance on the generated
// corpus, whose citations all point to lower ids.
func runSolver(opts Options) ([]*Table, error) {
	c, err := BuildCorpus(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	g := c.Store.CitationGraph()
	t := &Table{
		ID:      "F7",
		Title:   "PageRank solver comparison (medium corpus)",
		Columns: []string{"tolerance", "power-iters", "power-ms", "gs-iters", "gs-ms", "kendall-tau"},
		Notes: []string{
			"Gauss-Seidel sweeps newest-to-oldest, exploiting the chronological article ids",
		},
	}
	for _, tol := range []float64{1e-6, 1e-9, 1e-12} {
		iter := sparse.IterOptions{Tol: tol, MaxIter: 1000}
		startP := time.Now()
		power, err := rank.PageRank(g, rank.PageRankOptions{Workers: opts.Workers, Iter: iter})
		if err != nil {
			return nil, fmt.Errorf("experiments: solver power: %w", err)
		}
		powerMs := float64(time.Since(startP).Milliseconds())
		startG := time.Now()
		gs, err := rank.PageRankGaussSeidel(g, rank.PageRankOptions{Workers: opts.Workers, Iter: iter})
		if err != nil {
			return nil, fmt.Errorf("experiments: solver gs: %w", err)
		}
		gsMs := float64(time.Since(startG).Milliseconds())
		tau, err := eval.KendallTau(power.Scores, gs.Scores)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0e", tol), power.Stats.Iterations, powerMs,
			gs.Stats.Iterations, gsMs, tau)
	}
	return []*Table{t}, nil
}

package experiments

import (
	"fmt"

	"scholarrank/internal/core"
	"scholarrank/internal/sparse"
)

func init() {
	register(Experiment{ID: "F3", Title: "Convergence of the iterative methods", Run: runConvergence})
}

// convergenceIters is how many leading iterations the figure reports.
const convergenceIters = 25

// runConvergence traces the L1 residual of every iterative method on
// the medium corpus. Expected shape: the Gauss–Seidel walks (PageRank,
// CiteRank) solve the chronological citation graph in a couple of
// sweeps; P-Rank's citation term sweeps the same way but its author
// and venue layers are Jacobi, so it decays geometrically like the
// Jacobi iterations (FutureRank); HITS decays at the spectral gap of
// the citation graph (typically slower and less regular).
func runConvergence(opts Options) ([]*Table, error) {
	ctx, err := prepare(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	o := evalOptions(opts.Workers)
	o.Iter = sparse.IterOptions{Tol: 1e-14, MaxIter: convergenceIters, Trace: true}
	runs := []method{
		{"PageRank", core.ScorerPageRank},
		{"HITS", core.ScorerHITS},
		{"CiteRank", core.ScorerCiteRank},
		{"FutureRank", core.ScorerFutureRank},
		{"P-Rank", core.ScorerPRank},
	}

	t := &Table{
		ID:      "F3",
		Title:   "L1 residual by iteration (medium corpus)",
		Columns: []string{"iteration"},
		Notes:   []string{"Gauss–Seidel walks converge in a few sweeps; Jacobi iterations decay geometrically at ≈ the damping factor (0.85)"},
	}
	traces := make([][]float64, 0, len(runs))
	for _, m := range runs {
		sc, err := core.RankScorer(ctx.net, m.scorer, nil, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: convergence %s: %w", m.label, err)
		}
		t.Columns = append(t.Columns, m.label)
		traces = append(traces, sc.PrestigeStats.ResidualTrace)
	}
	for i := 0; i < convergenceIters; i++ {
		row := []any{i + 1}
		for _, tr := range traces {
			if i < len(tr) {
				row = append(row, fmt.Sprintf("%.3e", tr[i]))
			} else {
				row = append(row, "converged")
			}
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

package experiments

import (
	"fmt"
	"math/rand"

	"scholarrank/internal/eval"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
)

func init() {
	register(Experiment{ID: "F5", Title: "Robustness to citation sparsity", Run: runSparsity})
}

// runSparsity reproduces the link-sparsity robustness figure: drop a
// fraction of the visible citations, re-rank, and measure both the
// absolute accuracy against future citations and the Kendall τ of
// each method's sparse ranking against its own full ranking.
// Heterogeneous, time-aware methods are expected to degrade most
// gracefully: the author/venue layers and recency signal survive
// edge loss.
func runSparsity(opts Options) ([]*Table, error) {
	c, err := BuildCorpus(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	h, err := gen.SplitByYear(c.Store, holdoutCutoff(c))
	if err != nil {
		return nil, err
	}
	fullNet := hetnet.Build(h.Train)

	// Full-graph reference scores per method.
	fullScores := make(map[string][]float64, len(methods))
	for _, m := range methods {
		scores, err := m.scores(fullNet, opts.Workers)
		if err != nil {
			return nil, err
		}
		fullScores[m.label] = scores
	}

	accT := &Table{
		ID:      "F5",
		Title:   "Pairwise accuracy vs fraction of citations retained",
		Columns: []string{"retained"},
	}
	tauT := &Table{
		ID:      "F5b",
		Title:   "Kendall tau of sparse ranking vs own full ranking",
		Columns: []string{"retained"},
		Notes:   []string{"higher tau = ranking more stable under edge loss"},
	}
	for _, m := range methods {
		accT.Columns = append(accT.Columns, m.label)
		tauT.Columns = append(tauT.Columns, m.label)
	}

	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		rng := rand.New(rand.NewSource(4000 + opts.Seed + int64(frac*100)))
		sampled, err := gen.SampleCitations(h.Train, frac, rng)
		if err != nil {
			return nil, err
		}
		net := hetnet.Build(sampled)
		accRow := []any{frac}
		tauRow := []any{frac}
		for _, m := range methods {
			scores, err := m.scores(net, opts.Workers)
			if err != nil {
				return nil, fmt.Errorf("%w (%.0f%% of citations)", err, frac*100)
			}
			accRng := rand.New(rand.NewSource(5000 + opts.Seed))
			acc, _, err := eval.PairwiseAccuracy(scores, h.FutureCites, accRng, pairSamples)
			if err != nil {
				return nil, err
			}
			tau, err := eval.KendallTau(scores, fullScores[m.label])
			if err != nil {
				return nil, err
			}
			accRow = append(accRow, acc)
			tauRow = append(tauRow, tau)
		}
		accT.AddRow(accRow...)
		tauT.AddRow(tauRow...)
	}
	return []*Table{accT, tauT}, nil
}

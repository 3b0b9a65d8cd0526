package experiments

import (
	"fmt"
	"math/rand"

	"scholarrank/internal/eval"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
)

func init() {
	register(Experiment{ID: "F8", Title: "Robustness to publication-year metadata noise", Run: runNoise})
}

// runNoise perturbs the publication year of a growing fraction of
// articles (±3 years) and measures how each method's accuracy against
// the *clean* future-citation ground truth degrades. Time-aware
// methods consume years directly, so this probes whether their
// advantage survives the metadata quality of real bibliographic
// dumps. Expected shape: static methods are flat by construction
// (they ignore years — CiteCount/PageRank/HITS exactly, year-
// normalised counts mildly affected); the time-aware family loses a
// few points but stays far above the static family.
func runNoise(opts Options) ([]*Table, error) {
	c, err := BuildCorpus(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	h, err := gen.SplitByYear(c.Store, holdoutCutoff(c))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F8",
		Title:   "Pairwise accuracy vs fraction of articles with noisy years (±3y)",
		Columns: []string{"noisy-frac"},
		Notes: []string{
			"years perturbed after the holdout split; ground truth stays clean",
		},
	}
	for _, m := range methods {
		t.Columns = append(t.Columns, m.label)
	}
	for _, frac := range []float64{0, 0.1, 0.25, 0.5, 1.0} {
		rng := rand.New(rand.NewSource(7000 + opts.Seed + int64(frac*100)))
		noisy, err := gen.PerturbYears(h.Train, frac, 3, rng)
		if err != nil {
			return nil, err
		}
		net := hetnet.Build(noisy)
		row := []any{frac}
		for _, m := range methods {
			scores, err := m.scores(net, opts.Workers)
			if err != nil {
				return nil, fmt.Errorf("%w (%.0f%% noisy years)", err, frac*100)
			}
			accRng := rand.New(rand.NewSource(7100 + opts.Seed))
			acc, _, err := eval.PairwiseAccuracy(scores, h.FutureCites, accRng, pairSamples)
			if err != nil {
				return nil, err
			}
			row = append(row, acc)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

package experiments

import (
	"fmt"
	"math/rand"

	"scholarrank/internal/eval"
)

func init() {
	register(Experiment{ID: "T8", Title: "Variance across corpus seeds", Run: runVariance})
}

// varianceSeeds is how many independently generated corpora the
// variance study averages over.
const varianceSeeds = 5

// varianceMethods are the methods whose stability is reported: the
// core algorithm, the strongest baseline, and the deployed-everywhere
// baseline.
var varianceMethods = map[string]bool{
	QISAMethodName: true,
	"CiteRank":     true,
	"CiteCount":    true,
}

// runVariance re-generates the medium corpus under several seeds and
// reports the spread of each method's pairwise accuracy: mean, sample
// standard deviation and a 95% bootstrap CI. Expected shape: the
// method ordering from T2 is stable across corpora — the CIs of
// QISA-Rank and CiteCount do not overlap.
func runVariance(opts Options) ([]*Table, error) {
	accs := map[string][]float64{}
	var order []string
	for _, m := range methods {
		if varianceMethods[m.label] {
			order = append(order, m.label)
		}
	}
	for seed := int64(0); seed < varianceSeeds; seed++ {
		seedOpts := opts
		seedOpts.Seed = opts.Seed + seed*1000
		ctx, err := prepare(SizeMedium, seedOpts)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			if !varianceMethods[m.label] {
				continue
			}
			scores, err := m.scores(ctx.net, opts.Workers)
			if err != nil {
				return nil, fmt.Errorf("%w (seed %d)", err, seed)
			}
			rng := rand.New(rand.NewSource(9000 + seed))
			acc, _, err := eval.PairwiseAccuracy(scores, ctx.future, rng, pairSamples)
			if err != nil {
				return nil, err
			}
			accs[m.label] = append(accs[m.label], acc)
		}
	}
	t := &Table{
		ID:      "T8",
		Title:   fmt.Sprintf("Accuracy spread over %d corpus seeds (medium corpus)", varianceSeeds),
		Columns: []string{"method", "mean-acc", "stddev", "ci95-lo", "ci95-hi"},
		Notes:   []string{"CI: percentile bootstrap over the per-seed accuracies"},
	}
	for _, name := range order {
		xs := accs[name]
		lo, hi, err := eval.BootstrapMeanCI(xs, 0.95, 2000, rand.New(rand.NewSource(9100)))
		if err != nil {
			return nil, err
		}
		t.AddRow(name, eval.Mean(xs), eval.StdDev(xs), lo, hi)
	}
	p, err := eval.PairedBootstrapPValue(accs[QISAMethodName], accs["CiteRank"], 5000,
		rand.New(rand.NewSource(9200)))
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"paired bootstrap p-value for QISA-Rank <= CiteRank across seeds: %.4f", p))
	return []*Table{t}, nil
}

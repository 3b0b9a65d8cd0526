package experiments

import "scholarrank/internal/retrieval"

func init() {
	register(Experiment{ID: "T7", Title: "Retrieval blending: query relevance + importance prior", Run: runRetrieval})
}

// runRetrieval reproduces the downstream-search evaluation of
// query-independent evidence: blend each method's importance scores
// with a noisy per-query relevance signal and measure mean NDCG@10
// against graded (quality-weighted) relevance. Expected shape: every
// reasonable prior improves over pure relevance at some interior
// lambda; the better the ranking method, the larger the gain.
func runRetrieval(opts Options) ([]*Table, error) {
	ctx, err := prepare(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	wopts := retrieval.DefaultWorkloadOptions()
	wopts.Seed = 8000 + opts.Seed
	if opts.Quick {
		wopts.Queries = 40
	}
	// Gains are the articles' future citations: the searcher wants
	// the topical papers the community is about to build on.
	queries, err := retrieval.BuildWorkload(ctx.net, ctx.future, wopts)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "T7",
		Title:   "Mean NDCG@10 of blended retrieval (medium corpus)",
		Columns: []string{"method", "pure-relevance", "best-lambda", "ndcg@best", "gain%"},
		Notes: []string{
			"blend: lambda·relevance + (1-lambda)·importance, both rank-percentile scaled per query",
			"relevance: noisy topical signal; gains: future citations of the relevant articles",
		},
	}
	for _, m := range methods {
		scores, err := m.scores(ctx.net, opts.Workers)
		if err != nil {
			return nil, err
		}
		pure, err := retrieval.MeanNDCG(queries, scores, 1, 10)
		if err != nil {
			return nil, err
		}
		best, sweep, err := retrieval.BestLambda(queries, scores, 10)
		if err != nil {
			return nil, err
		}
		var bestNDCG float64
		for _, p := range sweep {
			if p.Lambda == best {
				bestNDCG = p.NDCG
			}
		}
		gain := 0.0
		if pure > 0 {
			gain = (bestNDCG - pure) / pure * 100
		}
		t.AddRow(m.label, pure, best, bestNDCG, gain)
	}
	return []*Table{t}, nil
}

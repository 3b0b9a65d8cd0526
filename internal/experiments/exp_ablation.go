package experiments

import (
	"fmt"
	"math/rand"

	"scholarrank/internal/core"
	"scholarrank/internal/eval"
)

func init() {
	register(Experiment{ID: "T5", Title: "QISA-Rank ablation", Run: runAblation})
}

// ablationVariant is one row of the ablation table.
type ablationVariant struct {
	name   string
	mutate func(*core.Options)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"full", func(*core.Options) {}},
		{"prestige-only", func(o *core.Options) {
			o.Ensemble = core.Arithmetic
			o.WPrestige, o.WPopularity, o.WHetero = 1, 0, 0
		}},
		{"popularity-only", func(o *core.Options) {
			o.Ensemble = core.Arithmetic
			o.WPrestige, o.WPopularity, o.WHetero = 0, 1, 0
		}},
		{"hetero-only", func(o *core.Options) {
			o.Ensemble = core.Arithmetic
			o.WPrestige, o.WPopularity, o.WHetero = 0, 0, 1
		}},
		{"no-time-decay", func(o *core.Options) { o.DisableTimeDecay = true }},
		{"no-prestige-fade", func(o *core.Options) { o.RhoFade = 0 }},
		{"no-author-layer", func(o *core.Options) { o.DisableAuthors = true }},
		{"no-venue-layer", func(o *core.Options) { o.DisableVenues = true }},
		{"arithmetic-ensemble", func(o *core.Options) { o.Ensemble = core.Arithmetic }},
		{"harmonic-ensemble", func(o *core.Options) { o.Ensemble = core.Harmonic }},
		{"minmax-normalization", func(o *core.Options) { o.Normalization = core.NormMinMax }},
	}
}

// runAblation removes each design choice in turn and measures the
// damage against both ground truths on the medium corpus.
func runAblation(opts Options) ([]*Table, error) {
	ctx, err := prepare(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "T5",
		Title:   "QISA-Rank ablation (medium corpus)",
		Columns: []string{"variant", "acc-future", "acc-quality", "ndcg@50-future"},
		Notes: []string{
			"acc-future: pairwise accuracy vs future citations; acc-quality: vs latent quality oracle",
		},
	}
	eng := core.NewEngine(ctx.net)
	for _, v := range ablationVariants() {
		o := evalOptions(opts.Workers)
		v.mutate(&o)
		sc, err := eng.Rank(o)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		rng := rand.New(rand.NewSource(2000 + opts.Seed))
		accF, _, err := eval.PairwiseAccuracy(sc.Importance, ctx.future, rng, pairSamples)
		if err != nil {
			return nil, err
		}
		accQ, _, err := eval.PairwiseAccuracy(sc.Importance, ctx.quality, rng, pairSamples)
		if err != nil {
			return nil, err
		}
		ndcg, err := eval.NDCG(sc.Importance, ctx.future, 50)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, accF, accQ, ndcg)
	}
	return []*Table{t}, nil
}

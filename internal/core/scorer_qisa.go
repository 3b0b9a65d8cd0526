package core

import (
	"fmt"

	"scholarrank/internal/sparse"
)

// The paper's pipeline, re-expressed as registered scorers: the three
// component signals stand alone (prestige / popularity / hetero) and
// the full ensemble is the composite registered as DefaultScorer.

func init() {
	RegisterScorer(DefaultScorer,
		"QISA-Rank: gap-decayed prestige + decayed popularity + hetero walk, ensemble-folded",
		newQISAScorer(DefaultScorer))
	RegisterScorer(ScorerPrestige,
		"gap-decayed, recency-personalised PageRank with prestige fading (the paper's first stage, alone)",
		newQISAScorer(ScorerPrestige))
	RegisterScorer(ScorerPopularity,
		"time-decayed citation intensity (closed form, no walk)",
		fixed(popularityScorer{}))
	RegisterScorer(ScorerHetero,
		"coupled article-author-venue walk with recency restart (the cold-start signal, alone)",
		newQISAScorer(ScorerHetero))
}

// Registry names of the single-signal pipeline scorers. They reuse
// the solver phase names, so traces read the same either way.
const (
	ScorerPrestige   = PhasePrestige
	ScorerPopularity = "popularity"
	ScorerHetero     = PhaseHetero
)

// prestigeSpec is the pipeline's first stage: the gap-decayed walk
// restarting at recent articles. Its fixed points depend on RhoGap (the
// operator changes with it), so each distinct decay keeps its own warm
// vector, mirroring the engine's gap-transition cache.
func prestigeSpec(o Options, seed []float64) walkSpec {
	return walkSpec{key: fmt.Sprintf("prestige/%g", o.RhoGap), phase: PhasePrestige, seed: seed,
		rhoGap: o.RhoGap, cite: o.Damping, restart: 1 - o.Damping, recent: true, rho: o.RhoRecency}
}

// heteroSpec is the second stage: the coupled article–author–venue walk
// restarting at recent articles, mixed by the λs.
func heteroSpec(o Options, seed []float64) walkSpec {
	return walkSpec{key: PhaseHetero, phase: PhaseHetero, seed: seed,
		cite: o.LambdaCite, author: o.LambdaAuthor, venue: o.LambdaVenue, restart: o.LambdaTime, recent: true, rho: o.RhoRecency}
}

// newQISAScorer builds the composite or one of its two walk stages
// alone. The composite folds the faded prestige, the popularity and the
// hetero signal with the configured ensemble; a stage alone scores its
// own signal (prestige on the raw scale: rank comparisons don't care,
// and the raw vector is what warm starts want).
func newQISAScorer(name string) ScorerFactory {
	specs := func(ctx *SolveContext) []walkSpec {
		o, seeds := ctx.Options(), InitialScores{}
		if o.InitialScores != nil {
			seeds = *o.InitialScores
		}
		switch name {
		case ScorerPrestige:
			return []walkSpec{prestigeSpec(o, seeds.Prestige)}
		case ScorerHetero:
			return []walkSpec{heteroSpec(o, seeds.Hetero)}
		}
		return []walkSpec{prestigeSpec(o, seeds.Prestige), heteroSpec(o, seeds.Hetero)}
	}
	read := func(ctx *SolveContext, xs [][]float64, stats []sparse.IterStats) ([]float64, error) {
		opts := ctx.Options()
		sc := &Scores{}
		ctx.SetComponents(sc)
		if name != ScorerHetero {
			sc.RawPrestige, sc.PrestigeStats = ctx.Restore(xs[0]), stats[0]
			var err error
			if sc.Prestige, err = fadeByAge(ctx.Network(), opts.RhoFade, sc.RawPrestige); err != nil {
				return nil, err
			}
		}
		if name == ScorerPrestige {
			return sc.Prestige, nil
		}
		last := len(xs) - 1
		sc.Hetero, sc.HeteroStats = ctx.Restore(xs[last]), stats[last]
		if name == ScorerHetero {
			return sc.Hetero, nil
		}
		sc.Popularity = computePopularity(ctx.Network(), opts)
		return combine(opts, sc)
	}
	return fixed(&walkScorer{name: name, specs: specs, read: read})
}

// popularityScorer is the closed-form decayed citation count — no
// iteration, so no warm cache and no solver stats.
type popularityScorer struct{}

func (popularityScorer) Name() string { return ScorerPopularity }

func (popularityScorer) Score(ctx *SolveContext) ([]float64, error) {
	popularity := computePopularity(ctx.Network(), ctx.Options())
	ctx.SetComponents(&Scores{Popularity: popularity})
	return popularity, nil
}

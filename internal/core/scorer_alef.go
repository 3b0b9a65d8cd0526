package core

import "scholarrank/internal/sparse"

func init() {
	RegisterScorer(ScorerALEF,
		"article-eigenfactor variant: damped walk with dangling mass redistributed through the teleport, eigenfactor flow read-out",
		newALEFScorer)
}

// ScorerALEF is the registry name of the article-eigenfactor
// baseline.
const ScorerALEF = "alef"

// alefScorer implements the ALEF (Article-Level Eigenfactor) variant
// of the damped citation walk. Two things distinguish it from
// PageRank-as-importance:
//
//   - Dangling handling: articles with no outgoing references donate
//     their mass to the teleport distribution each sweep rather than
//     being pruned or self-looped — at scholarly-corpus dangling
//     fractions (most recent articles cite into the corpus but are
//     never cited out of it) this measurably changes the fixed point.
//     sparse.DampedWalkFrom's pipelined dangling mass implements
//     exactly this redistribution.
//
//   - Read-out: the score is not the stationary visit frequency π but
//     the eigenfactor flow Mᵀπ + dangling(π)·v — the citation mass
//     arriving at each article from the converged distribution. The
//     teleport's direct (1-d)·v "free visit" contribution is excluded,
//     so an article earns score only through actual citations, not
//     through the restart.
type alefScorer struct {
	damping float64
}

func newALEFScorer(o ScorerOptions) (Scorer, error) {
	s := &alefScorer{}
	if err := o.read(ScorerALEF, option{"damping", &s.damping, 0.85}); err != nil {
		return nil, err
	}
	if err := checkUnit(ScorerALEF, "damping", s.damping); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *alefScorer) Name() string { return ScorerALEF }

// alefWarmKey caches the walk's fixed point (not the flow read-out,
// which is a cheap one-sweep function of it).
const alefWarmKey = "walk"

func (s *alefScorer) Score(ctx *SolveContext) ([]float64, error) {
	n := ctx.View().NumArticles()
	t, err := ctx.Sharded(ctx.CitationTransition())
	if err != nil {
		return nil, err
	}
	teleport := uniformVector(n)
	x, stats, err := ctx.walk(alefWarmKey, t, s.damping, teleport)
	if err != nil {
		return nil, err
	}

	flow := make([]float64, n)
	t.MulVec(flow, x)
	dm := t.DanglingMass(x)
	for i := range flow {
		flow[i] += dm * teleport[i]
	}
	sparse.Normalize1(flow)
	ctx.SetComponents(&Scores{PrestigeStats: stats})
	return ctx.Restore(flow), nil
}

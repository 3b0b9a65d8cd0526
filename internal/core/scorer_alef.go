package core

import (
	"fmt"
	"math"

	"scholarrank/internal/sparse"
)

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
	if err := o.checkKeys(ScorerALEF, "damping"); err != nil {
		return nil, err
	}
	s := &alefScorer{damping: o.Get("damping", 0.85)}
	if s.damping <= 0 || s.damping >= 1 || math.IsNaN(s.damping) {
		return nil, fmt.Errorf("%w: alef damping %v, want (0, 1)", ErrBadOptions, s.damping)
	}
	return s, nil
}

func (s *alefScorer) Name() string { return ScorerALEF }

// alefWarmKey caches the walk's fixed point (not the flow read-out,
// which is a cheap one-sweep function of it).
const alefWarmKey = "walk"

func (s *alefScorer) Score(ctx *SolveContext) ([]float64, error) {
	opts := ctx.Options()
	n := ctx.View().NumArticles()
	t, err := ctx.Sharded(ctx.CitationTransition())
	if err != nil {
		return nil, err
	}

	teleport := make([]float64, n)
	sparse.Uniform(teleport)
	init, err := ctx.WarmStart(alefWarmKey, nil)
	if err != nil {
		return nil, fmt.Errorf("core: alef: %w", err)
	}
	if init == nil {
		init = teleport
	}
	it := ctx.IterFor(PhaseALEF)
	it.AitkenEvery = opts.AitkenEvery
	x, stats, err := sparse.DampedWalkFrom(t, s.damping, teleport, init, it)
	if err != nil {
		return nil, fmt.Errorf("core: alef: %w", err)
	}
	ctx.KeepWarm(alefWarmKey, x)

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

package core

import (
	"fmt"
	"math"

	"scholarrank/internal/corpus"
	"scholarrank/internal/sparse"
)

func init() {
	RegisterScorer(ScorerEWPR,
		"ensemble weighted PageRank: venue/author-weighted citation walks, percentile-averaged (WSDM Cup 2016 winner)",
		newEWPRScorer)
	RegisterScorer(ScorerVWPageRank,
		"venue-weighted PageRank (W-Rank style): each citation weighted by the citing venue's mean citations per article",
		newVWPageRankScorer)
}

// Registry names of the weighted-walk baselines.
const (
	ScorerEWPR       = "ewpr"
	ScorerVWPageRank = "vw-pagerank"
)

// ewprScorer implements the Ensemble Enabled Weighted PageRank family
// (WSDM Cup 2016 winner): citation edges are weighted by the *citing*
// article's venue prestige and author talent — an endorsement from a
// strong venue's well-published authors outweighs one from an obscure
// corner of the graph — and the final score is an ensemble of several
// damped walks that differ in edge weighting and teleport. Entity
// weights are estimated endogenously as add-one-smoothed mean
// citations per venue/author (normalised to mean 1), so no external
// venue ranking is needed. Each ensemble member's fixed point is a
// probability distribution on the same scale, so the members are
// fused by plain averaging — a roundoff-stable combination (rank
// fusion would let near-tied scores flip across solve orders).
//
// vw-pagerank is the ensemble's first member alone with venue weight
// only (γv = 1, γa = 0): the W-Rank-style venue-weighted PageRank.
type ewprScorer struct {
	name        string
	damping     float64
	venueGamma  float64
	authorGamma float64
	// single keeps only the weighted walk under the uniform teleport.
	single bool
}

func newEWPRScorer(o ScorerOptions) (Scorer, error) {
	s := &ewprScorer{name: ScorerEWPR}
	if err := o.read(s.name, option{"damping", &s.damping, 0.85},
		option{"venue_gamma", &s.venueGamma, 0.5}, option{"author_gamma", &s.authorGamma, 0.5}); err != nil {
		return nil, err
	}
	if err := checkUnit(s.name, "damping", s.damping); err != nil {
		return nil, err
	}
	if s.venueGamma < 0 || s.authorGamma < 0 {
		return nil, fmt.Errorf("%w: ewpr gammas %v/%v, want >= 0", ErrBadOptions, s.venueGamma, s.authorGamma)
	}
	return s, nil
}

func newVWPageRankScorer(o ScorerOptions) (Scorer, error) {
	s := &ewprScorer{name: ScorerVWPageRank, venueGamma: 1, single: true}
	if err := o.read(s.name, option{"damping", &s.damping, 0.85}); err != nil {
		return nil, err
	}
	if err := checkUnit(s.name, "damping", s.damping); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *ewprScorer) Name() string { return s.name }

func (s *ewprScorer) Score(ctx *SolveContext) ([]float64, error) {
	view := ctx.View()
	n := view.NumArticles()

	weights := s.articleWeights(ctx) // solver order, mean ~1
	base := ctx.CitationTransition()
	weighted, err := ctx.Sharded(base.Reweighted(func(u, v int32) float64 { return weights[u] }))
	if err != nil {
		return nil, err
	}
	uniform := uniformVector(n)

	// The ensemble: the weighted walk under both teleports plus the
	// unweighted walk as an anchor, so the endogenous weight estimate
	// can refine the plain ranking but never fully override it.
	type member struct {
		key      string
		t        *sparse.Transition
		teleport []float64
	}
	members := []member{{"weighted-uniform", weighted, uniform}}
	if !s.single {
		cit, err := ctx.Sharded(base)
		if err != nil {
			return nil, err
		}
		recency, err := recencyTeleport(view, ctx.Options().RhoRecency)
		if err != nil {
			return nil, fmt.Errorf("core: ewpr: %w", err)
		}
		members = append(members, member{"weighted-recency", weighted, recency}, member{"plain-uniform", cit, uniform})
	}

	var agg sparse.IterStats
	agg.Converged = true
	fused := make([]float64, n)
	for _, m := range members {
		vec, stats, err := ctx.walk(m.key, m.t, s.damping, m.teleport)
		if err != nil {
			return nil, err
		}
		agg.Iterations += stats.Iterations
		agg.Elapsed += stats.Elapsed
		agg.Extrapolations += stats.Extrapolations
		agg.IterationsSaved += stats.IterationsSaved
		agg.Converged = agg.Converged && stats.Converged
		agg.Residual = math.Max(agg.Residual, stats.Residual)
		for i, v := range ctx.Restore(vec) {
			fused[i] += v
		}
	}
	inv := 1 / float64(len(members))
	for i := range fused {
		fused[i] *= inv
	}
	ctx.SetComponents(&Scores{PrestigeStats: agg})
	return fused, nil
}

// articleWeights estimates each article's citation-source quality
// venueW^γv · authorW^γa in original order, then maps it to solver
// order for per-edge lookup by citing article id. Venueless or
// authorless articles carry the neutral weight 1 on that factor.
func (s *ewprScorer) articleWeights(ctx *SolveContext) []float64 {
	net := ctx.Network()
	n := net.NumArticles()
	indeg := net.Citations.InDegrees()

	venueW := entityMeanCitations(indeg, net.NumVenues(), func(e int32) []corpus.ArticleID {
		return net.VenueArticles(e)
	})
	authorW := entityMeanCitations(indeg, net.NumAuthors(), func(e int32) []corpus.ArticleID {
		return net.AuthorArticles(e)
	})

	w := make([]float64, n)
	for i := range w {
		vw := 1.0
		if ven := net.ArticleVenue(corpus.ArticleID(i)); ven != corpus.NoVenue {
			vw = venueW[ven]
		}
		aw := 1.0
		if authors := net.ArticleAuthors(corpus.ArticleID(i)); len(authors) > 0 {
			var sum float64
			for _, a := range authors {
				sum += authorW[a]
			}
			aw = sum / float64(len(authors))
		}
		w[i] = math.Pow(vw, s.venueGamma) * math.Pow(aw, s.authorGamma)
	}
	return ctx.Perm().Applied(w)
}

// entityMeanCitations computes add-one-smoothed mean citations per
// article for each entity, normalised so the across-entity mean is 1
// — W-Rank's endogenous venue prestige, generalised over the entity
// axis.
func entityMeanCitations(indeg []int, num int, articlesOf func(int32) []corpus.ArticleID) []float64 {
	w := make([]float64, num)
	if num == 0 {
		return w
	}
	var total float64
	for e := 0; e < num; e++ {
		arts := articlesOf(int32(e))
		var cites float64
		for _, p := range arts {
			cites += float64(indeg[p])
		}
		w[e] = (cites + 1) / float64(len(arts)+1)
		total += w[e]
	}
	if total > 0 {
		mean := total / float64(num)
		for e := range w {
			w[e] /= mean
		}
	}
	return w
}

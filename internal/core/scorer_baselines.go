package core

import (
	"fmt"
	"math"

	"scholarrank/internal/graph"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
)

// The query-independent baselines the experiments compare QISA-Rank
// against, registered like every other scorer so the CLIs, the server,
// the snapshot and the leaderboard rank with them too. Each option bag
// defaults to the parameterisation the experiment tables report. From
// Options a baseline reads only Workers, Iter and Trace, and ewpr its
// recency rate RhoRecency.

func init() {
	RegisterScorer(ScorerCiteCount, "raw citation count (in-degree)",
		newCountScorer(ScorerCiteCount, citeCounts))
	RegisterScorer(ScorerYearNorm, "citation count over the add-one-smoothed mean count of its publication year",
		newCountScorer(ScorerYearNorm, yearNormCounts))
	RegisterScorer(ScorerAgeNorm, "citations per year of age (age floored at 1)",
		newCountScorer(ScorerAgeNorm, ageNormCounts))
	RegisterScorer(ScorerPageRank, "PageRank: damped citation walk with a uniform teleport",
		newWalkScorer(ScorerPageRank))
	RegisterScorer(ScorerCiteRank, "CiteRank: damped citation walk restarting at recent articles (teleport ∝ exp(-rho·age))",
		newWalkScorer(ScorerCiteRank))
	RegisterScorer(ScorerTimedPR, "timed PageRank: PageRank faded by exp(-rho·age)",
		newWalkScorer(ScorerTimedPR))
	RegisterScorer(ScorerSCEAS, "SCEAS: citations weighted by chain depth (decay) plus a direct-citation bonus",
		newWalkScorer(ScorerSCEAS))
	RegisterScorer(ScorerEWPR, "EWPR-style ensemble (WSDM Cup 2016 winner) whose citer weights cancel: 2:1 mean of PageRank and CiteRank at the engine's recency rate",
		newWalkScorer(ScorerEWPR))
	RegisterScorer(ScorerHITS, "HITS authority: Kleinberg mutual reinforcement on the citation graph, no teleport",
		newHITSScorer)
	RegisterScorer(ScorerFutureRank, "FutureRank: citation walk + author reinforcement + recency restart",
		newFutureRankScorer)
	RegisterScorer(ScorerCoRank, "Co-Ranking: citation and co-authorship walks coupled through authorship",
		newCoRankScorer)
	RegisterScorer(ScorerPRank, "P-Rank: citation, author and venue layers in one damped walk",
		newPRankScorer)
}

// Registry names of the baselines.
const (
	ScorerCiteCount  = "citecount"
	ScorerYearNorm   = "yearnorm"
	ScorerAgeNorm    = "agenorm"
	ScorerPageRank   = "pagerank"
	ScorerCiteRank   = "citerank"
	ScorerTimedPR    = "timedpr"
	ScorerHITS       = "hits"
	ScorerSCEAS      = "sceas"
	ScorerEWPR       = "ewpr"
	ScorerFutureRank = "futurerank"
	ScorerCoRank     = "corank"
	ScorerPRank      = "prank"
)

// uniformVector returns the uniform distribution over n items.
func uniformVector(n int) []float64 {
	u := make([]float64, n)
	sparse.Uniform(u)
	return u
}

// countScorer is a closed-form citation-count baseline: no walk, no
// warm cache, no solver stats.
type countScorer struct {
	name   string
	scores func(net *hetnet.Network) ([]float64, error)
}

func newCountScorer(name string, scores func(*hetnet.Network) ([]float64, error)) ScorerFactory {
	return func(o ScorerOptions) (Scorer, error) {
		if err := o.checkKeys(name); err != nil {
			return nil, err
		}
		return countScorer{name, scores}, nil
	}
}

func (s countScorer) Name() string { return s.name }

func (s countScorer) Score(ctx *SolveContext) ([]float64, error) { return s.scores(ctx.Network()) }

// citeCounts is the in-degree of every article: the most widely
// deployed signal, and the weakest for future impact because it
// ignores who cites and when.
func citeCounts(net *hetnet.Network) ([]float64, error) {
	in := net.Citations.InDegrees()
	scores := make([]float64, len(in))
	for i, d := range in {
		scores[i] = float64(d)
	}
	return scores, nil
}

// yearNormCounts removes the mechanical advantage of older articles:
// the group-normalised count with every article in one group.
func yearNormCounts(net *hetnet.Network) ([]float64, error) {
	return rank.GroupNormCiteCount(net.Citations, make([]int, net.NumArticles()), net.Years)
}

// ageNormCounts is citations per year of age.
func ageNormCounts(net *hetnet.Network) ([]float64, error) {
	in := net.Citations.InDegrees()
	scores := make([]float64, len(in))
	for i, d := range in {
		scores[i] = float64(d) / math.Max(net.Now-net.Years[i], 1)
	}
	return scores, nil
}

// walkScorer is every baseline that uses only the citation operator:
// one damped walk over the Gauss–Seidel citation operator, read out.
//
//   - pagerank is the walk under a uniform teleport.
//   - citerank restarts at recent articles (teleport ∝ exp(-rho·age)),
//     a researcher who starts reading at the frontier, so old prestige
//     alone cannot dominate.
//   - timedpr fades PageRank by exp(-rho·age) afterwards, so old
//     prestige fades unless refreshed.
//   - sceas is PageRank at damping = decay, mapped onto SCEAS's scale
//     (walkScorer.sceasScores).
//   - ewpr is the fixed point of the WSDM Cup 2016 winner's ensemble
//     (walkScorer.ewprScores).
type walkScorer struct {
	name    string
	damping float64 // the walk's damping: sceas's decay
	rho     float64 // citerank's restart rate, timedpr's fade rate
	bonus   float64 // sceas's direct-citation bonus
}

func newWalkScorer(name string) ScorerFactory {
	return func(o ScorerOptions) (Scorer, error) {
		s := &walkScorer{name: name}
		fields := []option{{"damping", &s.damping, 0.85}}
		switch name {
		case ScorerCiteRank:
			fields = append(fields, option{"rho", &s.rho, 0.38})
		case ScorerTimedPR:
			fields = append(fields, option{"rho", &s.rho, 0.2})
		case ScorerSCEAS:
			fields = []option{{"decay", &s.damping, 1 / math.E}, {"bonus", &s.bonus, 1}}
		}
		if err := o.read(name, fields...); err != nil {
			return nil, err
		}
		if err := checkUnit(name, fields[0].key, s.damping); err != nil {
			return nil, err
		}
		for _, f := range fields[1:] {
			if *f.dst < 0 {
				return nil, fmt.Errorf("%w: %s %s %v, want >= 0", ErrBadOptions, name, f.key, *f.dst)
			}
		}
		return s, nil
	}
}

func (s *walkScorer) Name() string { return s.name }

func (s *walkScorer) Score(ctx *SolveContext) ([]float64, error) {
	t := ctx.CitationTransition()
	teleport := uniformVector(t.N())
	if s.name == ScorerCiteRank {
		var err error
		if teleport, err = recencyTeleport(ctx.View(), s.rho); err != nil {
			return nil, err
		}
	}
	unit := 1.0
	if s.name == ScorerSCEAS {
		// Stop where the iteration on S itself would: a change of the
		// walk moves S by b·n/(1−d+d·dm) ≤ b·n/(1−d) times as much. A
		// zero bonus scores 0 everywhere, so any sweep will do.
		unit = s.bonus * float64(t.N()) / (1 - s.damping)
	}
	x, stats, err := ctx.walk("walk", t, s.damping, teleport, unit)
	if err != nil {
		return nil, err
	}
	switch s.name {
	case ScorerTimedPR:
		return fadeByAge(ctx.Network(), s.rho, ctx.result(x, stats))
	case ScorerSCEAS:
		return s.sceasScores(ctx, t, x, stats), nil
	case ScorerEWPR:
		return s.ewprScores(ctx, t, x, stats)
	}
	return ctx.result(x, stats), nil
}

// sceasScores reads SCEAS (Sidiropoulos & Manolopoulos) out of the
// PageRank walk x at damping d = decay:
//
//	S(p) = Σ_{q→p} (S(q) + b) · d / outdeg(q)
//
// The direct-citation bonus b makes each citation worth something even
// from a zero-score citer, and d < 1 discounts long chains
// geometrically. With S = b·(y − 1) the system is y = d·Mᵀy + 1, and
// the walk's fixed point x = d·Mᵀx + (1−d+d·dm(x))/n is y scaled by
// (1−d+d·dm(x))/n, so S = b·(n·x/(1−d+d·dm(x)) − 1). Scores stay
// unnormalised: their scale is "citations weighted by chain depth".
func (s *walkScorer) sceasScores(ctx *SolveContext, t *sparse.Transition, x []float64, stats sparse.IterStats) []float64 {
	scale := float64(t.N()) / (1 - s.damping + s.damping*t.DanglingMass(x))
	scores := ctx.result(x, stats)
	in := ctx.Network().Citations.InDegrees()
	for i, v := range scores {
		if in[i] == 0 {
			// S is 0 without citations; the read-out would leave a
			// rounding error of either sign there.
			scores[i] = 0
			continue
		}
		scores[i] = s.bonus * (scale*v - 1)
	}
	return scores
}

// ewprScores reads an EWPR ensemble (after the WSDM Cup 2016 winner)
// out of the PageRank walk pr. The ensemble averages the plain uniform
// walk with two walks whose citations are weighted by the citing
// article's venue and author quality, one under the uniform and one
// under the recency teleport. A weight that depends only on the citing
// article cancels under row normalisation, so each weighted member is
// the plain walk under its teleport, and the fixed point is the 2:1
// mean of PageRank and CiteRank at rho = Options.RhoRecency. Luo et
// al.'s per-edge weighting would be a different method.
func (s *walkScorer) ewprScores(ctx *SolveContext, t *sparse.Transition, pr []float64, prStats sparse.IterStats) ([]float64, error) {
	teleport, err := recencyTeleport(ctx.View(), ctx.Options().RhoRecency)
	if err != nil {
		return nil, fmt.Errorf("core: ewpr: %w", err)
	}
	cr, crStats, err := ctx.walk("recency", t, s.damping, teleport, 1)
	if err != nil {
		return nil, err
	}
	fused := make([]float64, len(pr))
	for i := range fused {
		fused[i] = (2*pr[i] + cr[i]) / 3
	}
	stats := sparse.IterStats{
		Iterations:      prStats.Iterations + crStats.Iterations,
		Residual:        math.Max(prStats.Residual, crStats.Residual),
		Converged:       prStats.Converged && crStats.Converged,
		Elapsed:         prStats.Elapsed + crStats.Elapsed,
		Extrapolations:  prStats.Extrapolations + crStats.Extrapolations,
		IterationsSaved: prStats.IterationsSaved + crStats.IterationsSaved,
	}
	return ctx.result(fused, stats), nil
}

// hitsScorer is Kleinberg's mutual reinforcement on the citation
// graph, scoring the authority vector:
//
//	auth = normalise(Aᵀ·hub)   hub = normalise(A·auth)
//
// Unlike the PageRank family it has no teleport, so on a disconnected
// graph mass concentrates in the dominant component.
type hitsScorer struct{}

func newHITSScorer(o ScorerOptions) (Scorer, error) {
	if err := o.checkKeys(ScorerHITS); err != nil {
		return nil, err
	}
	return hitsScorer{}, nil
}

func (hitsScorer) Name() string { return ScorerHITS }

func (hitsScorer) Score(ctx *SolveContext) ([]float64, error) {
	g := ctx.View().Citations
	tr := g.Transpose()
	hub := make([]float64, g.NumNodes())
	// One step over the authority vector: recover the hubs from the
	// current authorities, then advance the authorities.
	step := func(dst, src []float64) {
		sumNeighbors(g, hub, src)
		sparse.Normalize1(hub)
		sumNeighbors(tr, dst, hub)
		sparse.Normalize1(dst)
	}
	x, stats, err := ctx.iterate(uniformVector(g.NumNodes()), step)
	if err != nil {
		return nil, err
	}
	return ctx.result(x, stats), nil
}

// sumNeighbors sets dst[u] to the sum of x over u's out-neighbours in g.
func sumNeighbors(g *graph.Graph, dst, x []float64) {
	for u := range dst {
		var s float64
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			s += x[v]
		}
		dst[u] = s
	}
}

// futureRankScorer is FutureRank (Sayyadi & Getoor): one fixed point
// over the article vector coupling the citation walk, authorship
// reinforcement and a recency restart:
//
//	x' = α·(Mᵀx + dangling·r) + β·S_A(G_A(x)) + γ·r + (1-α-β-γ)·u
//
// with r the recency vector and u uniform. Mass leaked by author-less
// articles is routed through r.
type futureRankScorer struct {
	alpha, beta, gamma, rho float64
}

func newFutureRankScorer(o ScorerOptions) (Scorer, error) {
	s := &futureRankScorer{}
	if err := o.read(ScorerFutureRank, option{"alpha", &s.alpha, 0.5}, option{"beta", &s.beta, 0.2},
		option{"gamma", &s.gamma, 0.2}, option{"rho", &s.rho, 0.3}); err != nil {
		return nil, err
	}
	if s.alpha < 0 || s.beta < 0 || s.gamma < 0 || s.rho < 0 || s.alpha+s.beta+s.gamma > 1+1e-12 {
		return nil, fmt.Errorf("%w: futurerank alpha/beta/gamma %v/%v/%v (want >= 0, sum <= 1), rho %v",
			ErrBadOptions, s.alpha, s.beta, s.gamma, s.rho)
	}
	return s, nil
}

func (s *futureRankScorer) Name() string { return ScorerFutureRank }

func (s *futureRankScorer) Score(ctx *SolveContext) ([]float64, error) {
	view, pool := ctx.View(), ctx.Pool()
	n := view.NumArticles()
	r, err := recencyTeleport(view, s.rho)
	if err != nil {
		return nil, err
	}
	t := ctx.CitationTransition()
	authors := make([]float64, view.NumAuthors())
	fromAuthors := make([]float64, n)
	uniform := 1 / float64(n)
	rest := 1 - s.alpha - s.beta - s.gamma
	step := func(dst, src []float64) {
		t.MulVec(dst, src)
		dm := t.DanglingMass(src)
		leak := view.GatherArticlesToAuthorsPar(pool, authors, src)
		view.SpreadAuthorsToArticlesPar(pool, fromAuthors, authors)
		for i := range dst {
			cite := dst[i] + dm*r[i]
			auth := fromAuthors[i] + leak*r[i]
			dst[i] = s.alpha*cite + s.beta*auth + s.gamma*r[i] + rest*uniform
		}
		sparse.Normalize1(dst) // guards against drift over many iterations
	}
	x, stats, err := ctx.iterate(uniformVector(n), step)
	if err != nil {
		return nil, err
	}
	return ctx.result(x, stats), nil
}

// coRankScorer is Co-Ranking (Zhou et al.): two damped intra-class
// walks, over the citation graph and over the co-authorship graph,
// coupled through authorship so good articles lift their authors and
// reputable authors lift their articles:
//
//	p' = (1-κ)·walk_D(p) + κ·S_A(a)    (articles)
//	a' = (1-κ)·walk_C(a) + κ·G_A(p)    (authors)
//
// Mass leaked by author-less articles (and article-less authors) is
// redistributed uniformly within the receiving class. The author
// distribution comes back in Scores.Authors.
type coRankScorer struct {
	coupling, damping float64
}

func newCoRankScorer(o ScorerOptions) (Scorer, error) {
	s := &coRankScorer{}
	if err := o.read(ScorerCoRank, option{"coupling", &s.coupling, 0.2}, option{"damping", &s.damping, 0.85}); err != nil {
		return nil, err
	}
	if err := checkUnit(ScorerCoRank, "coupling", s.coupling); err != nil {
		return nil, err
	}
	if err := checkUnit(ScorerCoRank, "damping", s.damping); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *coRankScorer) Name() string { return ScorerCoRank }

func (s *coRankScorer) Score(ctx *SolveContext) ([]float64, error) {
	view, pool := ctx.View(), ctx.Pool()
	nP, nA := view.NumArticles(), view.NumAuthors()
	citeT := ctx.CitationTransition()
	if nA == 0 {
		// No author class: Co-Ranking reduces to PageRank.
		x, stats, err := ctx.walk("walk", citeT, s.damping, uniformVector(nP), 1)
		if err != nil {
			return nil, err
		}
		return ctx.result(x, stats), nil
	}
	coauthT := sparse.NewTransition(ctx.Network().CoauthorGraph(), pool)
	d, k := s.damping, s.coupling
	uniP, uniA := 1/float64(nP), 1/float64(nA)
	fromAuthors := make([]float64, nP)
	gathered := make([]float64, nA)
	// The iterate is the article vector followed by the author vector,
	// so the residual is the joint L1 change. Both sides read the
	// previous iterate (Jacobi), keeping the update symmetric.
	step := func(dst, src []float64) {
		p, a := src[:nP], src[nP:]
		nextP, nextA := dst[:nP], dst[nP:]
		citeT.MulVec(nextP, p)
		dmP := citeT.DanglingMass(p)
		view.SpreadAuthorsToArticlesPar(pool, fromAuthors, a)
		spreadLeak := 1 - sparse.Sum(fromAuthors) // authors without articles
		for i := range nextP {
			walk := d*(nextP[i]+dmP*uniP) + (1-d)*uniP
			nextP[i] = (1-k)*walk + k*(fromAuthors[i]+spreadLeak*uniP)
		}
		coauthT.MulVec(nextA, a)
		dmA := coauthT.DanglingMass(a)
		gatherLeak := view.GatherArticlesToAuthorsPar(pool, gathered, p)
		for i := range nextA {
			walk := d*(nextA[i]+dmA*uniA) + (1-d)*uniA
			nextA[i] = (1-k)*walk + k*(gathered[i]+gatherLeak*uniA)
		}
		sparse.Normalize1(nextP)
		sparse.Normalize1(nextA)
	}
	init := make([]float64, nP+nA)
	sparse.Uniform(init[:nP])
	sparse.Uniform(init[nP:])
	x, stats, err := ctx.iterate(init, step)
	if err != nil {
		return nil, err
	}
	scores := ctx.result(x[:nP], stats)
	ctx.comps.Authors = sparse.Clone(x[nP:])
	return scores, nil
}

// pRankScorer is P-Rank: article mass flows through the citation walk
// and through author and venue intermediaries at once, then mixes with
// a uniform teleport:
//
//	x' = d·(φp·cite(x) + φa·S_A(G_A(x)) + φv·S_V(G_V(x))) + (1-d)·u
//
// which is the blend walk with a uniform restart and λ = d·φ, λt = 1-d.
type pRankScorer struct {
	paper, author, venue, damping float64
}

func newPRankScorer(o ScorerOptions) (Scorer, error) {
	s := &pRankScorer{}
	if err := o.read(ScorerPRank, option{"paper", &s.paper, 0.6}, option{"author", &s.author, 0.2},
		option{"venue", &s.venue, 0.2}, option{"damping", &s.damping, 0.85}); err != nil {
		return nil, err
	}
	if sum := s.paper + s.author + s.venue; s.paper < 0 || s.author < 0 || s.venue < 0 || math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: prank layer weights %v/%v/%v, want >= 0 summing to 1",
			ErrBadOptions, s.paper, s.author, s.venue)
	}
	if err := checkUnit(ScorerPRank, "damping", s.damping); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *pRankScorer) Name() string { return ScorerPRank }

func (s *pRankScorer) Score(ctx *SolveContext) ([]float64, error) {
	view := ctx.View()
	d := s.damping
	b := blend{r: uniformVector(view.NumArticles()), cite: d * s.paper, author: d * s.author, venue: d * s.venue, restart: 1 - d}
	x, stats, err := b.walk(view, ctx.CitationTransition(), ctx.Pool(), ctx.cached(fixedPointKey), ctx.IterFor(ScorerPRank))
	if err != nil {
		return nil, fmt.Errorf("core: prank: %w", err)
	}
	ctx.KeepWarm(fixedPointKey, x)
	return ctx.result(x, stats), nil
}

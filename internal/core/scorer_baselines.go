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
		fixed(countScorer{ScorerCiteCount, citeCounts}))
	RegisterScorer(ScorerYearNorm, "citation count over the add-one-smoothed mean count of its publication year",
		fixed(countScorer{ScorerYearNorm, yearNormCounts}))
	RegisterScorer(ScorerAgeNorm, "citations per year of age (age floored at 1)",
		fixed(countScorer{ScorerAgeNorm, ageNormCounts}))
	RegisterScorer(ScorerPageRank, "PageRank: damped citation walk with a uniform teleport",
		newCitationScorer(ScorerPageRank))
	RegisterScorer(ScorerCiteRank, "CiteRank: damped citation walk restarting at recent articles (teleport ∝ exp(-rho·age))",
		newCitationScorer(ScorerCiteRank))
	RegisterScorer(ScorerTimedPR, "timed PageRank: PageRank faded by exp(-rho·age)",
		newCitationScorer(ScorerTimedPR))
	RegisterScorer(ScorerSCEAS, "SCEAS: citations weighted by chain depth (decay) plus a direct-citation bonus",
		newCitationScorer(ScorerSCEAS))
	RegisterScorer(ScorerEWPR, "EWPR-style ensemble (WSDM Cup 2016 winner) whose citer weights cancel: 2:1 mean of PageRank and CiteRank at the engine's recency rate",
		newCitationScorer(ScorerEWPR))
	RegisterScorer(ScorerHITS, "HITS authority: Kleinberg mutual reinforcement on the citation graph, no teleport",
		fixed(hitsScorer{}))
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

// newCitationScorer builds the baselines that walk the citation
// operator alone. pagerank is the damped walk under a uniform teleport;
// citerank restarts at recent articles (∝ exp(-rho·age)), a reader who
// starts at the frontier, so old prestige alone cannot dominate;
// timedpr fades PageRank by exp(-rho·age) afterwards; sceas is PageRank
// at damping = decay on SCEAS's scale (readSCEAS); ewpr is the WSDM Cup
// 2016 winner's ensemble (readEWPR).
func newCitationScorer(name string) ScorerFactory {
	return func(o ScorerOptions) (Scorer, error) {
		var damping, rho, bonus float64 // sceas's decay is its damping
		fields := []option{{"damping", &damping, 0.85, true}}
		switch name {
		case ScorerCiteRank:
			fields = append(fields, option{"rho", &rho, 0.38, false})
		case ScorerTimedPR:
			fields = append(fields, option{"rho", &rho, 0.2, false})
		case ScorerSCEAS:
			fields = []option{{"decay", &damping, 1 / math.E, true}, {"bonus", &bonus, 1, false}}
		}
		if err := o.read(name, fields...); err != nil {
			return nil, err
		}
		pr := walkSpec{key: "walk", phase: name, cite: damping, restart: 1 - damping}
		switch name {
		case ScorerCiteRank:
			pr.recent, pr.rho = true, rho
		case ScorerTimedPR:
			return walks(name, func(ctx *SolveContext, xs [][]float64, stats []sparse.IterStats) ([]float64, error) {
				return fadeByAge(ctx.Network(), rho, ctx.result(xs[0], stats[0]))
			}, pr), nil
		case ScorerSCEAS:
			return &walkScorer{name: name,
				specs: func(ctx *SolveContext) []walkSpec {
					// Stop where the iteration on S itself would: a change
					// of the walk moves S by b·n/(1−d+d·dm) ≤ b·n/(1−d)
					// times as much. A zero bonus scores 0 everywhere, so
					// any sweep will do.
					sp := pr
					sp.unit = bonus * float64(ctx.NumArticles()) / (1 - damping)
					return []walkSpec{sp}
				},
				read: func(ctx *SolveContext, xs [][]float64, stats []sparse.IterStats) ([]float64, error) {
					return readSCEAS(ctx, xs[0], stats[0], damping, bonus), nil
				}}, nil
		case ScorerEWPR:
			return &walkScorer{name: name, read: readEWPR, specs: func(ctx *SolveContext) []walkSpec {
				cr := pr
				cr.key, cr.recent, cr.rho = "recency", true, ctx.Options().RhoRecency
				return []walkSpec{pr, cr}
			}}, nil
		}
		return walks(name, readResult, pr), nil
	}
}

// readSCEAS reads SCEAS (Sidiropoulos & Manolopoulos) out of the
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
func readSCEAS(ctx *SolveContext, x []float64, stats sparse.IterStats, d, b float64) []float64 {
	t := ctx.CitationTransition()
	scale := float64(t.N()) / (1 - d + d*t.DanglingMass(x))
	scores := ctx.result(x, stats)
	in := ctx.Network().Citations.InDegrees()
	for i, v := range scores {
		if in[i] == 0 {
			// S is 0 without citations; the read-out would leave a
			// rounding error of either sign there.
			scores[i] = 0
			continue
		}
		scores[i] = b * (scale*v - 1)
	}
	return scores
}

// readEWPR reads an EWPR ensemble (after the WSDM Cup 2016 winner) out
// of the PageRank and CiteRank walks. The ensemble averages the plain
// uniform walk with two walks whose citations are weighted by the
// citing article's venue and author quality, one under the uniform and
// one under the recency teleport. A weight that depends only on the
// citing article cancels under row normalisation, so each weighted
// member is the plain walk under its teleport, and the fixed point is
// the 2:1 mean of PageRank and CiteRank at rho = Options.RhoRecency.
// Luo et al.'s per-edge weighting would be a different method.
func readEWPR(ctx *SolveContext, xs [][]float64, stats []sparse.IterStats) ([]float64, error) {
	pr, cr := xs[0], xs[1]
	fused := make([]float64, len(pr))
	for i := range fused {
		fused[i] = (2*pr[i] + cr[i]) / 3
	}
	a, b := stats[0], stats[1]
	return ctx.result(fused, sparse.IterStats{
		Iterations:      a.Iterations + b.Iterations,
		Residual:        math.Max(a.Residual, b.Residual),
		Converged:       a.Converged && b.Converged,
		Elapsed:         a.Elapsed + b.Elapsed,
		Extrapolations:  a.Extrapolations + b.Extrapolations,
		IterationsSaved: a.IterationsSaved + b.IterationsSaved,
	}), nil
}

// hitsScorer is Kleinberg's mutual reinforcement on the citation
// graph, scoring the authority vector:
//
//	auth = normalise(Aᵀ·hub)   hub = normalise(A·auth)
//
// Unlike the PageRank family it has no teleport, so on a disconnected
// graph mass concentrates in the dominant component.
type hitsScorer struct{}

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

// newFutureRankScorer builds FutureRank (Sayyadi & Getoor): one fixed
// point over the article vector coupling the citation walk, authorship
// reinforcement and a recency restart:
//
//	x' = α·(Mᵀx + dangling·r) + β·S_A(G_A(x)) + γ·r + (1-α-β-γ)·u
//
// with r the recency vector and u uniform. Mass leaked by author-less
// articles is routed through r.
func newFutureRankScorer(o ScorerOptions) (Scorer, error) {
	var alpha, beta, gamma, rho float64
	if err := o.read(ScorerFutureRank, option{"alpha", &alpha, 0.5, false}, option{"beta", &beta, 0.2, false},
		option{"gamma", &gamma, 0.2, false}, option{"rho", &rho, 0.3, false}); err != nil {
		return nil, err
	}
	if alpha+beta+gamma > 1+1e-12 {
		return nil, fmt.Errorf("%w: futurerank alpha/beta/gamma %v/%v/%v sum above 1", ErrBadOptions, alpha, beta, gamma)
	}
	spec := walkSpec{key: fixedPointKey, phase: ScorerFutureRank, cite: alpha, author: beta,
		restart: gamma, uniform: 1 - alpha - beta - gamma, recent: true, rho: rho}
	return walks(ScorerFutureRank, readResult, spec), nil
}

// newCoRankScorer builds Co-Ranking (Zhou et al.): damped walks over
// the citation and the co-authorship graph, coupled through authorship
// so good articles lift their authors and reputable authors their
// articles — the two-block spec at λc = (1-κ)·d, λa = κ and a uniform
// restart (1-κ)·(1-d). The author distribution comes back in
// Scores.Authors. With no authors it is PageRank.
func newCoRankScorer(o ScorerOptions) (Scorer, error) {
	var k, d float64
	if err := o.read(ScorerCoRank, option{"coupling", &k, 0.2, true}, option{"damping", &d, 0.85, true}); err != nil {
		return nil, err
	}
	co := walkSpec{key: fixedPointKey, phase: ScorerCoRank, cite: (1 - k) * d, author: k, restart: (1 - k) * (1 - d), coauthors: true}
	pr := walkSpec{key: "walk", phase: ScorerCoRank, cite: d, restart: 1 - d}
	return &walkScorer{name: ScorerCoRank, read: readResult, specs: func(ctx *SolveContext) []walkSpec {
		if ctx.View().NumAuthors() == 0 {
			return []walkSpec{pr}
		}
		return []walkSpec{co}
	}}, nil
}

// newPRankScorer builds P-Rank: article mass flows through the citation
// walk and through author and venue intermediaries at once, then mixes
// with a uniform teleport:
//
//	x' = d·(φp·cite(x) + φa·S_A(G_A(x)) + φv·S_V(G_V(x))) + (1-d)·u
//
// which is the hetero walk with a uniform restart and λ = d·φ, λt = 1-d.
func newPRankScorer(o ScorerOptions) (Scorer, error) {
	var paper, author, venue, d float64
	if err := o.read(ScorerPRank, option{"paper", &paper, 0.6, false}, option{"author", &author, 0.2, false},
		option{"venue", &venue, 0.2, false}, option{"damping", &d, 0.85, true}); err != nil {
		return nil, err
	}
	if sum := paper + author + venue; math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: prank layer weights %v/%v/%v, want a sum of 1", ErrBadOptions, paper, author, venue)
	}
	return walks(ScorerPRank, readResult, walkSpec{key: fixedPointKey, phase: ScorerPRank, cite: d * paper, author: d * author,
		venue: d * venue, restart: 1 - d}), nil
}

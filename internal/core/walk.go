package core

import (
	"context"
	"fmt"
	"math"

	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
	"scholarrank/internal/temporal"
)

// walkSpec is one walk of the family every walk scorer solves: the
// fixed point, over the solver-ordered articles, of
//
//	x = λc·(Cᵀx + dm(x)·r) + λa·(S_A·G_A·x + leakA(x)·r)
//	  + λv·(S_V·G_V·x + leakV(x)·r) + λt·r + λu·u
//
// C is the citation operator's gap view at ρ_gap (at 0, the operator
// itself). G_A and
// G_V gather article mass onto authors (split equally among an
// article's authors) and venues; S_A and S_V spread it back, split
// equally over an entity's articles. dm(x) is the mass on articles that
// cite nothing, leakA and leakV the mass on articles without authors or
// venue. The restart r is recency(ρ) ∝ exp(−ρ·age) or uniform, and takes
// the dangling and leaked mass; u is uniform and takes none. The weights
// sum to 1, so the map keeps x on the simplex, and its fixed point is
// the solution of (I − B)x = λt·r + λu·u, B holding every term in x.
//
// With coauthors set, the author layer is a second block: a vector a
// over authors, and the article rows read λa·(S_A·a + leak·r), leak
// being the mass on authors without articles. The block is walked at
// the articles' weights over the co-authorship graph P and coupled back
// through authorship, with every restart and leak uniform over authors:
//
//	a = λc·(Pᵀa + dmP(a)·u_A) + λa·(G_A·x + leakA(x)·u_A) + λt·u_A
//
// Co-Ranking is that pair. Every other spec has one block.
type walkSpec struct {
	key    string    // warm-cache key, under the scorer's namespace
	phase  string    // trace phase
	seed   []float64 // explicit warm start in original order (InitialScores), or nil
	rhoGap float64   // the citation operator's gap decay

	cite, author, venue float64 // λc, λa, λv
	restart, uniform    float64 // λt on r, λu on u
	recent              bool    // r is recency(rho), not uniform
	rho                 float64 //

	// unit, when positive, converts a change of the walk into the units
	// of the scores read out of it: the walk stops once its L1 residual
	// times unit is below Options.Iter.Tol (sceas).
	unit      float64
	coauthors bool // the author layer is a second block (Co-Ranking)
}

// solveWalk is the one executor of walk specs. It runs s to its fixed
// point from the explicit seed, else the fixed point the scorer cached
// under s.key, else cold — the restart for a damped walk, uniform for
// any other — caches the result and returns it in solver order. Every
// sweep is Gauss–Seidel on the citation operator.
//
// A damped walk sweeps DampedStep and extrapolates at
// Options.AitkenEvery. Any other spec sweeps BlendStep, then the
// renormalising ScaleDiffStep: the layers and their leaks are gathered
// from the previous iterate before the sweep, and a second block is
// updated after the articles, from their new values. One
// FixedPointExtrapolated call drives both.
func (ctx *SolveContext) solveWalk(s walkSpec) ([]float64, sparse.IterStats, error) {
	view, pool := ctx.View(), ctx.Pool()
	n := view.NumArticles()
	fail := func(err error) ([]float64, sparse.IterStats, error) {
		return nil, sparse.IterStats{}, fmt.Errorf("core: %s: %w", s.phase, err)
	}
	t, err := ctx.GapTransition(s.rhoGap)
	if err != nil {
		return fail(err)
	}
	init, err := ctx.WarmStart(s.key, s.seed)
	if err != nil {
		return fail(fmt.Errorf("warm start: %w", err))
	}
	var r []float64
	if s.recent {
		kernel, err := temporal.NewExponential(s.rho)
		if err != nil {
			return fail(err)
		}
		r = rank.RecencyVector(view.Years, view.Now, kernel)
		sparse.Normalize1(r)
	} else {
		r = uniformVector(n)
	}
	it := ctx.IterFor(s.phase)
	if s.unit > 0 {
		if it.Tol == 0 {
			it.Tol = sparse.DefaultTol
		}
		it.Tol /= s.unit
	}

	xs := make([]float64, n) // the pre-scaled source, kept current by the steps
	var dang float64         // the dangling mass of the source, pipelined likewise
	reseed := func(x []float64) {
		dang = t.DanglingMass(x[:n])
		t.Prescale(xs, x[:n])
	}
	var step sparse.ResidualStepFunc
	// A plain damped walk — no layer, no second block, no uniform part —
	// sweeps DampedStep at damping λc, with the restart 1 − λc.
	if s.author == 0 && s.venue == 0 && !s.coauthors && s.uniform == 0 {
		if init == nil {
			init = r
		}
		it.AitkenEvery = ctx.opts.AitkenEvery
		step = func(dst, src []float64) (res float64) {
			res, _, dang = t.DampedStep(dst, src, xs, r, s.cite, dang)
			return res
		}
	} else {
		var authors, venues []float64
		var fa *sparse.AuxGather
		var fv *sparse.AuxLookup
		if s.author > 0 {
			authors = make([]float64, view.NumAuthors())
			fa = view.AuthorBlendLayer(authors)
		}
		if s.venue > 0 {
			venues = make([]float64, view.NumVenues())
			fv = view.VenueBlendLayer(venues)
		}
		var spreadAuthors func(dst, a []float64) float64
		var stepAuthors func(dst, a, x []float64) float64
		if s.coauthors {
			spreadAuthors, stepAuthors = authorBlock(ctx.Network(), view, pool, s)
		}
		if init == nil {
			init = uniformVector(n)
			if s.coauthors {
				init = append(init, uniformVector(view.NumAuthors())...)
			}
		}
		u := s.uniform / float64(n)
		step = func(dst, src []float64) float64 {
			x, next := src[:n], dst[:n]
			var aLeak, vLeak float64
			switch {
			case s.coauthors:
				aLeak = spreadAuthors(authors, src[n:])
			case s.author > 0:
				aLeak = view.GatherArticlesToAuthorsScaledPar(pool, authors, x)
			}
			if s.venue > 0 {
				vLeak = view.GatherArticlesToVenuesScaledPar(pool, venues, x)
			}
			sum, dangNext := t.BlendStep(next, x, xs, r, fa, fv, s.cite, s.author, s.venue, s.restart, u, dang, aLeak, vLeak)
			inv := 1.0
			if sum != 0 && !math.IsNaN(sum) && !math.IsInf(sum, 0) {
				inv = 1 / sum
			}
			dang = dangNext * inv
			res := t.ScaleDiffStep(next, x, xs, inv)
			if s.coauthors {
				res += stepAuthors(dst[n:], src[n:], next)
			}
			return res
		}
	}
	reseed(init)
	x, stats, err := sparse.FixedPointExtrapolated(context.Background(), nil, init, step, reseed, it)
	if err != nil {
		return fail(err)
	}
	ctx.KeepWarm(s.key, x)
	return x, stats, nil
}

// authorBlock returns the two halves of a coauthors spec's second
// block, the author vector a. spread writes a pre-scaled by each
// author's spread share 1/#articles into dst — the author layer the
// article sweep reads inline (hetnet's AuthorBlendLayer) — and returns
// the mass on authors without articles, the layer's leak. step writes
// the authors' next iterate into dst from a and the articles' new
// values x, renormalised, and returns its L1 change.
func authorBlock(net *hetnet.Network, view *hetnet.SolverView, pool *sparse.Pool, s walkSpec) (
	spread func(dst, a []float64) float64, step func(dst, a, x []float64) float64) {
	shares, gathered := make([]float64, view.NumAuthors()), make([]float64, view.NumAuthors())
	for a := range shares {
		if k := len(net.AuthorArticles(corpus.AuthorID(a))); k > 0 {
			shares[a] = 1 / float64(k)
		}
	}
	coauth := view.Coauthorship()
	spread = func(dst, a []float64) (leak float64) {
		for i, w := range shares {
			dst[i] = a[i] * w
			if w == 0 {
				leak += a[i]
			}
		}
		return leak
	}
	step = func(dst, a, x []float64) float64 {
		coauth.MulVec(pool, dst, a)
		dm := coauth.DanglingMass(a)
		leak := view.GatherArticlesToAuthorsPar(pool, gathered, x)
		c := (s.cite*dm + s.author*leak + s.restart) / float64(len(a))
		for i, v := range dst {
			dst[i] = s.cite*v + s.author*gathered[i] + c
		}
		sparse.Normalize1(dst)
		return sparse.L1Diff(dst, a)
	}
	return spread, step
}

// walkScorer is every scorer that reads its scores out of walk fixed
// points: the specs it solves, in order, built from its option bag and
// the rank Options, and the read-out that turns their solver-order
// fixed points into the importance vector and the result's components.
type walkScorer struct {
	name  string
	specs func(ctx *SolveContext) []walkSpec
	read  readout
}

// readout turns a walk scorer's fixed points (solver order) and their
// stats into its importance vector, depositing the components.
type readout func(ctx *SolveContext, xs [][]float64, stats []sparse.IterStats) ([]float64, error)

// walks returns the walk scorer that solves the given specs, fixed at
// construction, and reads them out with read.
func walks(name string, read readout, specs ...walkSpec) *walkScorer {
	return &walkScorer{name: name, specs: func(*SolveContext) []walkSpec { return specs }, read: read}
}

func (s *walkScorer) Name() string { return s.name }

func (s *walkScorer) Score(ctx *SolveContext) ([]float64, error) {
	specs := s.specs(ctx)
	xs := make([][]float64, len(specs))
	stats := make([]sparse.IterStats, len(specs))
	for i, spec := range specs {
		var err error
		if xs[i], stats[i], err = ctx.solveWalk(spec); err != nil {
			return nil, err
		}
	}
	return s.read(ctx, xs, stats)
}

// readResult is the identity read-out: the one fixed point, in original
// order, with its stats in PrestigeStats, and a second block's author
// vector in Authors.
func readResult(ctx *SolveContext, xs [][]float64, stats []sparse.IterStats) ([]float64, error) {
	n := ctx.NumArticles()
	scores := ctx.result(xs[0][:n], stats[0])
	if len(xs[0]) > n {
		ctx.comps.Authors = sparse.Clone(xs[0][n:])
	}
	return scores, nil
}

package core

import (
	"fmt"
	"math"

	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
	"scholarrank/internal/temporal"
)

// computePrestige runs the time-weighted PageRank stage: citation
// edges discounted by citation gap (encoded in gapTrans), teleport
// personalised toward recent articles. Everything here lives in
// solver (permuted) space — gapTrans was built from view.Citations and
// init, when non-nil, is already permuted — and the returned scores
// are likewise solver-ordered: the caller unmaps them. The returned
// scores are the raw walk result, before prestige fading. Aitken Δ²
// extrapolation runs at the cadence opts.AitkenEvery (resolved by
// effective()). gapTrans is a gap view of the network's citation
// operator (Engine.gapTransition), so the walk sweeps Gauss–Seidel.
func computePrestige(view *hetnet.SolverView, opts Options, gapTrans *sparse.Transition, init []float64) ([]float64, sparse.IterStats, error) {
	teleport, err := recencyTeleport(view, opts.RhoRecency)
	if err != nil {
		return nil, sparse.IterStats{}, fmt.Errorf("core: prestige: %w", err)
	}
	if init == nil {
		init = teleport
	}
	it := opts.iterFor(PhasePrestige)
	it.AitkenEvery = opts.AitkenEvery
	scores, stats, err := sparse.DampedWalkFrom(gapTrans, opts.Damping, teleport, init, it)
	if err != nil {
		return nil, sparse.IterStats{}, fmt.Errorf("core: prestige: %w", err)
	}
	return scores, stats, nil
}

// recencyTeleport is the restart distribution ∝ exp(-rho·age) over the
// view's articles, in solver order.
func recencyTeleport(view *hetnet.SolverView, rho float64) ([]float64, error) {
	kernel, err := temporal.NewExponential(rho)
	if err != nil {
		return nil, err
	}
	r := rank.RecencyVector(view.Years, view.Now, kernel)
	sparse.Normalize1(r)
	return r, nil
}

// applyFade multiplies raw prestige by exp(-RhoFade·age), returning a
// fresh slice (the raw vector is kept for warm starts).
func applyFade(net *hetnet.Network, opts Options, raw []float64) ([]float64, error) {
	return fadeByAge(net, opts.RhoFade, raw)
}

// fadeByAge returns scores (original order) multiplied by
// exp(-rho·age) in a fresh slice.
func fadeByAge(net *hetnet.Network, rho float64, scores []float64) ([]float64, error) {
	if rho == 0 {
		return sparse.Clone(scores), nil
	}
	fade, err := temporal.NewExponential(rho)
	if err != nil {
		return nil, fmt.Errorf("core: fade: %w", err)
	}
	out := make([]float64, len(scores))
	for i, v := range scores {
		out[i] = v * fade.Weight(temporal.Age(net.Now, net.Years[i]))
	}
	return out, nil
}

// computePopularity scores each article by the decayed citation
// intensity Σ_{i→j} exp(-rho·(now - t_i)): how much *current*
// attention flows into it. With rho = 0 it degrades to the raw
// citation count. The decay weight depends only on the citing
// article's publication year, so it is computed once per year of the
// corpus's span, into a table each citing row indexes, instead of
// paying an exp per edge.
func computePopularity(net *hetnet.Network, opts Options) []float64 {
	kernel := temporal.Exponential{Rho: opts.RhoRecency}
	weight := func(y int32) float64 { return kernel.Weight(temporal.Age(net.Now, float64(y))) }
	years := net.Store().YearColumn()
	lo, hi := net.Store().YearRange()
	var decay []float64     // weight(lo+i) for each year of the span
	if hi-lo < len(years) { // only a corrupt year spans wider: no table then
		decay = make([]float64, hi-lo+1)
		for i := range decay {
			decay[i] = weight(int32(lo + i))
		}
	}
	pop := make([]float64, len(years))
	off, cited := net.Citations.CSR()
	for u, y := range years {
		row := cited[off[u]:off[u+1]]
		if len(row) == 0 {
			continue
		}
		var w float64
		if decay != nil {
			w = decay[int(y)-lo]
		} else {
			w = weight(y)
		}
		for _, v := range row {
			pop[v] += w
		}
	}
	return pop
}

// computeHetero runs QISA-Rank's coupled article–author–venue walk: the
// blend walk restarting at recent articles, mixed by the λs of opts.
func computeHetero(view *hetnet.SolverView, opts Options, t *sparse.Transition, pool *sparse.Pool, init []float64) ([]float64, sparse.IterStats, error) {
	r, err := recencyTeleport(view, opts.RhoRecency)
	if err != nil {
		return nil, sparse.IterStats{}, fmt.Errorf("core: hetero: %w", err)
	}
	b := blend{r: r, cite: opts.LambdaCite, author: opts.LambdaAuthor, venue: opts.LambdaVenue, restart: opts.LambdaTime}
	return b.walk(view, t, pool, init, opts.iterFor(PhaseHetero))
}

// blend parameterises the coupled article–author–venue walk with
// restart distribution r:
//
//	x' = λc·(Mᵀx + dangling·r) + λa·S_A(G_A(x)) + λv·S_V(G_V(x)) + λt·r
//
// Mass leaked by articles missing authors or venues is routed through
// r. λt > 0 makes the map a strict contraction toward r, so the
// iteration converges for any starting distribution. QISA-Rank's
// hetero stage restarts at recent articles; P-Rank is the same walk
// with a uniform restart.
type blend struct {
	r                            []float64 // solver order, unit mass
	cite, author, venue, restart float64   // λc, λa, λv, λt
}

// walk solves the blend from init (nil: uniform). The iteration body
// is fused: the author/venue layers are gathered through pull-form
// pooled kernels (pre-scaled by the spread shares), then a single
// BlendStep combines the citation mat-vec, dangling and leak restarts,
// the inline layer spread (read straight from the article→authors CSR
// and venue index, never materialised), output sum, and next
// iteration's dangling mass, and ScaleDiffStep folds the normalisation
// into the residual pass and refreshes the pre-scaled source the next
// BlendStep gathers from.
//
// The walk runs in solver space: t was built from view.Citations, the
// view's bipartite layers carry solver article ids, and the returned
// vector is solver-ordered. Over the network's citation operator the
// citation mat-vec sweeps Gauss–Seidel while the author/venue layer
// coupling stays barrier-synchronous (gathered from src before the
// sweep) — the fixed point is that of the Jacobi walk.
func (b blend) walk(view *hetnet.SolverView, t *sparse.Transition, pool *sparse.Pool, init []float64, it sparse.IterOptions) ([]float64, sparse.IterStats, error) {
	n := view.NumArticles()
	var authors, venues []float64
	var authorLayer *sparse.AuxGather
	var venueLayer *sparse.AuxLookup
	if b.author > 0 {
		authors = make([]float64, view.NumAuthors())
		authorLayer = view.AuthorBlendLayer(authors)
	}
	if b.venue > 0 {
		venues = make([]float64, view.NumVenues())
		venueLayer = view.VenueBlendLayer(venues)
	}

	if init == nil {
		init = make([]float64, n)
		sparse.Uniform(init)
	}
	dang := t.DanglingMass(init) // seeds the pipelined dangling mass
	xs := make([]float64, n)     // the pre-scaled source, kept current by ScaleDiffStep
	t.Prescale(xs, init)
	step := func(dst, src []float64) float64 {
		var aLeak, vLeak float64
		if b.author > 0 {
			aLeak = view.GatherArticlesToAuthorsScaledPar(pool, authors, src)
		}
		if b.venue > 0 {
			vLeak = view.GatherArticlesToVenuesScaledPar(pool, venues, src)
		}
		sum, dangNext := t.BlendStep(dst, src, xs, b.r, authorLayer, venueLayer,
			b.cite, b.author, b.venue, b.restart, dang, aLeak, vLeak)
		inv := 1.0
		if sum != 0 && !math.IsNaN(sum) && !math.IsInf(sum, 0) {
			inv = 1 / sum
		}
		dang = dangNext * inv
		return t.ScaleDiffStep(dst, src, xs, inv)
	}
	return sparse.FixedPointResidual(init, step, it)
}

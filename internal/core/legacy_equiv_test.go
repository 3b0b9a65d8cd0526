package core

import (
	"context"
	"fmt"
	"testing"

	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
	"scholarrank/internal/temporal"
)

// This file pins the scorer refactor: Engine.Rank, now a dispatch
// through the registered default scorer, must reproduce the
// pre-refactor fused pipeline to 1e-12 — including the warm-cache
// behaviour across repeated solves and RhoGap changes. The oracle
// walks Jacobi operators of its own — sparse.NewTransition for the
// hetero stage (jacobiHetero), and the gap walk written out edge by edge (gapWalk)
// for prestige — so it is also the Jacobi reference for the engine's
// Gauss–Seidel sweeps: the same fixed points, in no more sweeps.

// legacyEngine replicates the pre-refactor Engine: the same solver
// view, but Jacobi operators built per solve and the warm-start vectors
// held in the old per-RhoGap prestige map plus single hetero slot.
type legacyEngine struct {
	eng          *Engine
	warmPrestige map[float64][]float64
	warmHetero   []float64
}

// rank is the pre-refactor Engine.Rank body, verbatim modulo the warm
// caches living on the harness — the equivalence oracle.
func (l *legacyEngine) rank(opts Options) (*Scores, error) {
	e := l.eng
	opts = opts.effective()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if e.net.NumArticles() == 0 {
		return &Scores{
			PrestigeStats: sparse.IterStats{Converged: true},
			HeteroStats:   sparse.IterStats{Converged: true},
		}, nil
	}
	pool := sparse.NewPool(opts.Workers)
	perm := e.view().Perm()
	citTrans := sparse.NewTransition(e.view().Citations, pool)
	gap, err := newGapWalk(e.view().Citations, e.view().Years, opts.RhoGap)
	if err != nil {
		return nil, err
	}
	var seeds InitialScores
	if opts.InitialScores != nil {
		seeds = *opts.InitialScores
	}
	warmVector := func(explicit, cached []float64) ([]float64, error) {
		if explicit == nil {
			return cached, nil
		}
		return (&SolveContext{eng: e}).WarmStart("", explicit)
	}
	initPrestige, err := warmVector(seeds.Prestige, l.warmPrestige[opts.RhoGap])
	if err != nil {
		return nil, fmt.Errorf("core: prestige warm start: %w", err)
	}
	initHetero, err := warmVector(seeds.Hetero, l.warmHetero)
	if err != nil {
		return nil, fmt.Errorf("core: hetero warm start: %w", err)
	}
	teleport, err := recencyRestart(e.view(), opts.RhoRecency)
	if err != nil {
		return nil, err
	}
	if initPrestige == nil {
		initPrestige = teleport
	}
	it := opts.Iter
	it.AitkenEvery = opts.AitkenEvery
	rawSolver, pStats, err := sparse.FixedPointExtrapolated(context.Background(), nil, initPrestige,
		func(dst, src []float64) float64 { return gap.step(dst, src, teleport, opts.Damping) }, nil, it)
	if err != nil {
		return nil, err
	}
	l.warmPrestige[opts.RhoGap] = rawSolver
	rawPrestige := perm.Restored(rawSolver)
	prestige, err := fadeByAge(e.net, opts.RhoFade, rawPrestige)
	if err != nil {
		return nil, err
	}
	popularity := computePopularity(e.net, opts)
	heteroSolver, hStats, err := jacobiHetero(e.view(), opts, citTrans, pool, initHetero)
	if err != nil {
		return nil, err
	}
	l.warmHetero = heteroSolver
	hetero := perm.Restored(heteroSolver)
	sc := &Scores{
		Prestige:      prestige,
		Popularity:    popularity,
		Hetero:        hetero,
		RawPrestige:   rawPrestige,
		PrestigeStats: pStats,
		HeteroStats:   hStats,
		Pool:          pool.Stats(),
	}
	if sc.Importance, err = combine(opts, sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// recencyRestart is the restart distribution ∝ exp(-rho·age) over the
// view's articles, in solver order.
func recencyRestart(view *hetnet.SolverView, rho float64) ([]float64, error) {
	kernel, err := temporal.NewExponential(rho)
	if err != nil {
		return nil, err
	}
	r := rank.RecencyVector(view.Years, view.Now, kernel)
	sparse.Normalize1(r)
	return r, nil
}

// jacobiHetero is the hetero stage as the pre-refactor engine ran it:
// the fused blend step over a Jacobi operator t, with both layers
// gathered from the previous iterate, from init (nil: uniform).
func jacobiHetero(view *hetnet.SolverView, opts Options, t *sparse.Transition, pool *sparse.Pool, init []float64) ([]float64, sparse.IterStats, error) {
	r, err := recencyRestart(view, opts.RhoRecency)
	if err != nil {
		return nil, sparse.IterStats{}, err
	}
	authors, venues := make([]float64, view.NumAuthors()), make([]float64, view.NumVenues())
	fa, fv := view.AuthorBlendLayer(authors), view.VenueBlendLayer(venues)
	if init == nil {
		init = uniformVector(view.NumArticles())
	}
	dang, xs := t.DanglingMass(init), make([]float64, len(init))
	t.Prescale(xs, init)
	step := func(dst, src []float64) float64 {
		aLeak := view.GatherArticlesToAuthorsScaledPar(pool, authors, src)
		vLeak := view.GatherArticlesToVenuesScaledPar(pool, venues, src)
		sum, dangNext := t.BlendStep(dst, src, xs, r, fa, fv, opts.LambdaCite, opts.LambdaAuthor, opts.LambdaVenue,
			opts.LambdaTime, 0, dang, aLeak, vLeak)
		dang = dangNext / sum
		return t.ScaleDiffStep(dst, src, xs, 1/sum)
	}
	return sparse.FixedPointResidual(init, step, opts.Iter)
}

// TestDefaultScorerMatchesLegacyRank drives the refactored engine and
// the legacy oracle through the same solve sequence — cold, warm
// repeat, a RhoGap change, a return to the cached RhoGap, and an
// explicit InitialScores seed — and requires every score vector to
// agree within 1e-12, and the engine's Gauss–Seidel sweeps never to
// outnumber the oracle's Jacobi sweeps.
func TestDefaultScorerMatchesLegacyRank(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		_, permNet, _ := genPermutedNetwork(t, 400, seed)
		eng := NewEngine(permNet)
		leg := &legacyEngine{eng: NewEngine(permNet), warmPrestige: map[float64][]float64{}}

		base := DefaultOptions()
		base.Workers = 1
		base.Iter = sparse.IterOptions{Tol: 1e-12, MaxIter: 2000}
		shifted := base
		shifted.RhoGap = 0.3

		steps := []struct {
			name string
			opts Options
		}{
			{"cold", base},
			{"warm repeat", base},
			{"rho-gap change", shifted},
			{"cached rho-gap return", base},
		}
		var last *Scores
		for _, step := range steps {
			got, err := eng.Rank(step.opts)
			if err != nil {
				t.Fatalf("seed %d %s: refactored: %v", seed, step.name, err)
			}
			want, err := leg.rank(step.opts)
			if err != nil {
				t.Fatalf("seed %d %s: legacy: %v", seed, step.name, err)
			}
			compareLegacy(t, fmt.Sprintf("seed %d %s", seed, step.name), got, want)
			last = got
		}

		seeded := base
		seeded.InitialScores = FromScores(last, permNet.NumArticles())
		got, err := eng.Rank(seeded)
		if err != nil {
			t.Fatalf("seed %d explicit seed: refactored: %v", seed, err)
		}
		want, err := leg.rank(seeded)
		if err != nil {
			t.Fatalf("seed %d explicit seed: legacy: %v", seed, err)
		}
		compareLegacy(t, fmt.Sprintf("seed %d explicit seed", seed), got, want)
	}
}

func compareLegacy(t *testing.T, label string, got, want *Scores) {
	t.Helper()
	if got.Scorer != DefaultScorer {
		t.Errorf("%s: Scorer = %q, want %q", label, got.Scorer, DefaultScorer)
	}
	for name, pair := range map[string][2][]float64{
		"Importance":  {got.Importance, want.Importance},
		"Prestige":    {got.Prestige, want.Prestige},
		"RawPrestige": {got.RawPrestige, want.RawPrestige},
		"Popularity":  {got.Popularity, want.Popularity},
		"Hetero":      {got.Hetero, want.Hetero},
	} {
		if d := sparse.MaxDiff(pair[0], pair[1]); d > 1e-12 {
			t.Errorf("%s: %s deviates from legacy engine by %v", label, name, d)
		}
	}
	if got.PrestigeStats.Iterations > want.PrestigeStats.Iterations ||
		got.HeteroStats.Iterations > want.HeteroStats.Iterations {
		t.Errorf("%s: more sweeps than the Jacobi oracle: prestige %d vs %d, hetero %d vs %d",
			label, got.PrestigeStats.Iterations, want.PrestigeStats.Iterations,
			got.HeteroStats.Iterations, want.HeteroStats.Iterations)
	}
}

package core

import (
	"fmt"
	"testing"

	"scholarrank/internal/sparse"
)

// This file pins the scorer refactor: Engine.Rank, now a dispatch
// through the registered default scorer, must reproduce the
// pre-refactor fused pipeline to 1e-12 — including the warm-cache
// behaviour across repeated solves and RhoGap changes. The oracle
// walks Jacobi operators of its own (sparse.NewTransition), so it is
// also the Jacobi reference for the engine's Gauss–Seidel sweeps: the
// same fixed points, in no more sweeps.

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
	gapTrans := citTrans
	if opts.RhoGap != 0 {
		g, err := gapWeightedGraph(e.view().Citations, e.view().Years, opts.RhoGap)
		if err != nil {
			return nil, err
		}
		gapTrans = sparse.NewTransition(g, pool)
	}
	initPrestige, err := warmVector(opts.InitialScores.prestige(), l.warmPrestige[opts.RhoGap], e.net.NumArticles(), perm)
	if err != nil {
		return nil, fmt.Errorf("core: prestige warm start: %w", err)
	}
	initHetero, err := warmVector(opts.InitialScores.hetero(), l.warmHetero, e.net.NumArticles(), perm)
	if err != nil {
		return nil, fmt.Errorf("core: hetero warm start: %w", err)
	}
	rawSolver, pStats, err := computePrestige(e.view(), opts, gapTrans, initPrestige)
	if err != nil {
		return nil, err
	}
	l.warmPrestige[opts.RhoGap] = rawSolver
	rawPrestige := perm.Restored(rawSolver)
	prestige, err := applyFade(e.net, opts, rawPrestige)
	if err != nil {
		return nil, err
	}
	popularity := computePopularity(e.net, opts)
	heteroSolver, hStats, err := computeHetero(e.view(), opts, citTrans, pool, initHetero)
	if err != nil {
		return nil, err
	}
	l.warmHetero = heteroSolver
	hetero := perm.Restored(heteroSolver)
	importance, err := combine(opts, prestige, popularity, hetero)
	if err != nil {
		return nil, err
	}
	return &Scores{
		Importance:    importance,
		Prestige:      prestige,
		Popularity:    popularity,
		Hetero:        hetero,
		RawPrestige:   rawPrestige,
		PrestigeStats: pStats,
		HeteroStats:   hStats,
		Pool:          pool.Stats(),
	}, nil
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

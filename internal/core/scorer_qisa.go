package core

import "fmt"

// The paper's pipeline, re-expressed as registered scorers: the three
// component signals stand alone (prestige / popularity / hetero) and
// the full ensemble is the composite registered as DefaultScorer.

func init() {
	RegisterScorer(DefaultScorer,
		"QISA-Rank: gap-decayed prestige + decayed popularity + hetero walk, ensemble-folded",
		func(o ScorerOptions) (Scorer, error) {
			if err := o.checkKeys(DefaultScorer); err != nil {
				return nil, err
			}
			return qisaScorer{}, nil
		})
	RegisterScorer(ScorerPrestige,
		"gap-decayed, recency-personalised PageRank with prestige fading (the paper's first stage, alone)",
		func(o ScorerOptions) (Scorer, error) {
			if err := o.checkKeys(ScorerPrestige); err != nil {
				return nil, err
			}
			return prestigeScorer{}, nil
		})
	RegisterScorer(ScorerPopularity,
		"time-decayed citation intensity (closed form, no walk)",
		func(o ScorerOptions) (Scorer, error) {
			if err := o.checkKeys(ScorerPopularity); err != nil {
				return nil, err
			}
			return popularityScorer{}, nil
		})
	RegisterScorer(ScorerHetero,
		"coupled article-author-venue walk with recency restart (the cold-start signal, alone)",
		func(o ScorerOptions) (Scorer, error) {
			if err := o.checkKeys(ScorerHetero); err != nil {
				return nil, err
			}
			return heteroScorer{}, nil
		})
}

// Registry names of the single-signal pipeline scorers. They reuse
// the solver phase names, so traces read the same either way.
const (
	ScorerPrestige   = PhasePrestige
	ScorerPopularity = "popularity"
	ScorerHetero     = PhaseHetero
)

// Warm-cache stage keys. Prestige fixed points depend on RhoGap (the
// operator changes with it), so each distinct decay keeps its own
// vector — mirroring the engine's gap-transition cache.
func prestigeWarmKey(rhoGap float64) string { return fmt.Sprintf("prestige/%g", rhoGap) }

const heteroWarmKey = "hetero"

// qisaScorer is the full two-stage pipeline: both iterative stages in
// solver space, fade + popularity in original order, folded by the
// configured ensemble.
type qisaScorer struct{}

func (qisaScorer) Name() string { return DefaultScorer }

func (qisaScorer) Score(ctx *SolveContext) ([]float64, error) {
	opts := ctx.Options()
	gapTrans, err := ctx.GapTransition(opts.RhoGap)
	if err != nil {
		return nil, err
	}
	if gapTrans, err = ctx.Sharded(gapTrans); err != nil {
		return nil, err
	}
	initPrestige, err := ctx.WarmStart(prestigeWarmKey(opts.RhoGap), opts.InitialScores.prestige())
	if err != nil {
		return nil, fmt.Errorf("core: prestige warm start: %w", err)
	}
	initHetero, err := ctx.WarmStart(heteroWarmKey, opts.InitialScores.hetero())
	if err != nil {
		return nil, fmt.Errorf("core: hetero warm start: %w", err)
	}
	rawSolver, pStats, err := computePrestige(ctx.View(), opts, gapTrans, initPrestige)
	if err != nil {
		return nil, err
	}
	ctx.KeepWarm(prestigeWarmKey(opts.RhoGap), rawSolver)
	rawPrestige := ctx.Restore(rawSolver)
	prestige, err := applyFade(ctx.Network(), opts, rawPrestige)
	if err != nil {
		return nil, err
	}
	popularity := computePopularity(ctx.Network(), opts)
	citTrans, err := ctx.Sharded(ctx.CitationTransition())
	if err != nil {
		return nil, err
	}
	heteroSolver, hStats, err := computeHetero(ctx.View(), opts, citTrans, ctx.Pool(), initHetero)
	if err != nil {
		return nil, err
	}
	ctx.KeepWarm(heteroWarmKey, heteroSolver)
	hetero := ctx.Restore(heteroSolver)
	importance, err := combine(opts, prestige, popularity, hetero)
	if err != nil {
		return nil, err
	}
	sc := &Scores{
		Prestige:      prestige,
		Popularity:    popularity,
		Hetero:        hetero,
		RawPrestige:   rawPrestige,
		PrestigeStats: pStats,
		HeteroStats:   hStats,
	}
	if err := ctx.stampSchedule(sc); err != nil {
		return nil, err
	}
	ctx.SetComponents(sc)
	return importance, nil
}

// prestigeScorer runs the first stage alone. Importance is the faded
// prestige signal itself (raw scale — rank-based comparisons don't
// care, and the raw vector is what warm starts want).
type prestigeScorer struct{}

func (prestigeScorer) Name() string { return ScorerPrestige }

func (prestigeScorer) Score(ctx *SolveContext) ([]float64, error) {
	opts := ctx.Options()
	gapTrans, err := ctx.GapTransition(opts.RhoGap)
	if err != nil {
		return nil, err
	}
	if gapTrans, err = ctx.Sharded(gapTrans); err != nil {
		return nil, err
	}
	init, err := ctx.WarmStart(prestigeWarmKey(opts.RhoGap), opts.InitialScores.prestige())
	if err != nil {
		return nil, fmt.Errorf("core: prestige warm start: %w", err)
	}
	rawSolver, stats, err := computePrestige(ctx.View(), opts, gapTrans, init)
	if err != nil {
		return nil, err
	}
	ctx.KeepWarm(prestigeWarmKey(opts.RhoGap), rawSolver)
	rawPrestige := ctx.Restore(rawSolver)
	prestige, err := applyFade(ctx.Network(), opts, rawPrestige)
	if err != nil {
		return nil, err
	}
	sc := &Scores{
		Prestige:      prestige,
		RawPrestige:   rawPrestige,
		PrestigeStats: stats,
	}
	if err := ctx.stampSchedule(sc); err != nil {
		return nil, err
	}
	ctx.SetComponents(sc)
	return prestige, nil
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

// heteroScorer runs the coupled walk alone — the pure cold-start
// signal.
type heteroScorer struct{}

func (heteroScorer) Name() string { return ScorerHetero }

func (heteroScorer) Score(ctx *SolveContext) ([]float64, error) {
	opts := ctx.Options()
	init, err := ctx.WarmStart(heteroWarmKey, opts.InitialScores.hetero())
	if err != nil {
		return nil, fmt.Errorf("core: hetero warm start: %w", err)
	}
	citTrans, err := ctx.Sharded(ctx.CitationTransition())
	if err != nil {
		return nil, err
	}
	heteroSolver, stats, err := computeHetero(ctx.View(), opts, citTrans, ctx.Pool(), init)
	if err != nil {
		return nil, err
	}
	ctx.KeepWarm(heteroWarmKey, heteroSolver)
	hetero := ctx.Restore(heteroSolver)
	sc := &Scores{Hetero: hetero, HeteroStats: stats}
	if err := ctx.stampSchedule(sc); err != nil {
		return nil, err
	}
	ctx.SetComponents(sc)
	return hetero, nil
}

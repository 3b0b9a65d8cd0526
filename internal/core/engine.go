package core

import (
	"fmt"
	"math"

	"scholarrank/internal/hetnet"
	"scholarrank/internal/shard"
	"scholarrank/internal/sparse"
)

// Engine ranks a fixed network repeatedly under varying options,
// caching the parameter-independent substrate between calls: one
// gap-weighted transition per distinct RhoGap value (the prestige
// stage).
// The citation transition operator (the popularity and hetero stages)
// is the network's own (hetnet.SolverView.CitationTransition), which
// sweeps Gauss–Seidel; the gap-weighted transitions are derived from
// it with Reweighted, so only the per-edge norm is recomputed — the
// CSR structure, dangling set, chunk plan and sweep are shared.
// Parameter sweeps — figures F1 and F2, the ablation table,
// interactive tuning — skip the O(m log m) rebuild that a fresh Rank
// call pays.
//
// Both iterative stages run in solver space — the network's
// chronologically ordered projection (hetnet.SolverView), usually the
// network itself — and their score vectors are mapped back to original
// article order at the Scores boundary, so callers never observe the
// permutation.
//
// An Engine is safe for sequential use only: Rank fills the caches.
// The operators themselves are immutable — each solve binds its own
// sparse.Pool handle, sized by Options.Workers, to a view
// (Transition.WithPool) — so other engines and indexes over the same
// network may run concurrently. An Engine owns no goroutines and
// needs no Close.
type Engine struct {
	net      *hetnet.Network
	gapTrans map[float64]*sparse.Transition
	// Warm starts: previous solver fixed points kept in solver
	// (permuted) space so a resume feeds the solver directly, keyed by
	// scorer-namespaced stage keys (SolveContext.WarmStart/KeepWarm) —
	// e.g. the default pipeline keeps one prestige vector per distinct
	// RhoGap plus its hetero vector. Fixed points do not depend on the
	// starting vector, so warm starting is purely an iteration-count
	// optimisation.
	warm map[string][]float64
}

// prestige returns the explicit prestige seed, nil-safe.
func (in *InitialScores) prestige() []float64 {
	if in == nil {
		return nil
	}
	return in.Prestige
}

// hetero returns the explicit hetero seed, nil-safe.
func (in *InitialScores) hetero() []float64 {
	if in == nil {
		return nil
	}
	return in.Hetero
}

// warmVector selects the starting vector for an iterative stage: an
// explicit Options.InitialScores seed wins over the engine's cached
// previous solution; nil means cold start. Explicit seeds arrive in
// original article order (they come from a previous Scores, possibly
// over a different permutation): they are validated against the
// network size, L1-normalised on a copy (solver fixed points are
// probability vectors; a well-scaled start converges in fewer
// sweeps), and mapped into solver space through perm. The cached
// vector is already in solver space. A seed with no mass — all zeros,
// as Resized produces for an all-new corpus — degrades to a cold
// start.
func warmVector(explicit, cached []float64, n int, perm *sparse.Permutation) ([]float64, error) {
	if explicit == nil {
		return cached, nil
	}
	if len(explicit) != n {
		return nil, fmt.Errorf("%w: initial vector length %d, want %d", ErrBadOptions, len(explicit), n)
	}
	v := sparse.Clone(explicit)
	if s := sparse.Normalize1(v); s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, nil
	}
	return perm.Applied(v), nil
}

// NewEngine wraps a network for repeated ranking. The network must
// not be mutated afterwards.
func NewEngine(net *hetnet.Network) *Engine {
	return &Engine{
		net:      net,
		gapTrans: make(map[float64]*sparse.Transition),
		warm:     make(map[string][]float64),
	}
}

// view returns the network's solver-order projection. The network
// builds it on first use and caches it, so NewEngine is free and the
// first solve over a network pays for the projection inside whatever
// span times that solve.
func (e *Engine) view() *hetnet.SolverView { return e.net.SolverView() }

// Network returns the wrapped network.
func (e *Engine) Network() *hetnet.Network { return e.net }

// Close does nothing: an Engine owns no goroutines. It is kept only
// because the benchmark module calls it.
func (e *Engine) Close() {}

// citationTransition returns the network's one citation operator
// (hetnet.SolverView.CitationTransition) as a view bound to pool. The
// operator is shared with every other engine and related-article index
// over the network, so it is never mutated here.
func (e *Engine) citationTransition(pool *sparse.Pool) *sparse.Transition {
	return e.view().CitationTransition().WithPool(pool)
}

func (e *Engine) gapTransition(rho float64, pool *sparse.Pool) (*sparse.Transition, error) {
	if rho == 0 {
		// No decay: the gap-weighted graph equals the citation graph.
		return e.citationTransition(pool), nil
	}
	t, ok := e.gapTrans[rho]
	if !ok {
		weight, err := gapWeightFunc(e.view().Years, rho)
		if err != nil {
			return nil, err
		}
		t = e.view().CitationTransition().Reweighted(weight)
		e.gapTrans[rho] = t
	}
	return t.WithPool(pool), nil
}

// stampSweep records on the result of a scorer that ran an iterative
// stage the back-edge fraction of the citation operator its walks swept
// (hetnet.SolverView.CitationTransition, Gauss–Seidel by construction),
// and the shard label: one shard, or for shards >= 2 the edge-balanced
// partition of the solver-ordered citation graph with one boundary
// exchange per shard per sweep. The label changes no sweep — the
// Gauss–Seidel pass is serial whatever the partition — and stays only
// because the benchmark module reports it. Partition clamps counts
// above the row count, so the label may be lower than requested.
func (e *Engine) stampSweep(sc *Scores, shards int) error {
	sc.BackEdgeFraction = e.view().CitationTransition().BackEdgeFraction()
	sc.Shards = 1
	if shards < 2 {
		return nil
	}
	plan, err := shard.Partition(e.view().Citations, shards)
	if err != nil {
		return fmt.Errorf("core: shard partition: %w", err)
	}
	sc.Shards = plan.Shards()
	sc.ShardEdges = plan.EdgeCounts()
	sc.PrestigeStats.Exchanges = sc.PrestigeStats.Iterations * sc.Shards
	sc.HeteroStats.Exchanges = sc.HeteroStats.Iterations * sc.Shards
	return nil
}

// Rank computes QISA-Rank — the registered default scorer — with the
// given options, reusing cached substrate where possible.
func (e *Engine) Rank(opts Options) (*Scores, error) {
	return e.RankScorer(DefaultScorer, nil, opts)
}

// RankScorer ranks with the named registered scorer, constructed from
// the given option bag (nil selects every scorer default). The rank
// Options drive shared machinery — workers, iteration control, trace
// hooks, decay rates — while the bag carries scorer-specific knobs.
func (e *Engine) RankScorer(name string, sopts ScorerOptions, opts Options) (*Scores, error) {
	s, err := NewScorer(name, sopts)
	if err != nil {
		return nil, err
	}
	sc, err := e.RankWith(s, opts)
	if err != nil {
		return nil, err
	}
	sc.ScorerOpts = sopts.Clone()
	return sc, nil
}

// RankWith ranks with an explicit scorer instance: validates and
// applies the options, builds the solve context over the engine's
// cached substrate, runs the scorer, and assembles the result.
func (e *Engine) RankWith(s Scorer, opts Options) (*Scores, error) {
	opts = opts.effective()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if e.net.NumArticles() == 0 {
		return &Scores{
			Scorer:        s.Name(),
			PrestigeStats: sparse.IterStats{Converged: true},
			HeteroStats:   sparse.IterStats{Converged: true},
		}, nil
	}
	pool := sparse.NewPool(opts.Workers)
	ctx := &SolveContext{eng: e, pool: pool, opts: opts, scorer: s.Name()}
	importance, err := s.Score(ctx)
	if err != nil {
		return nil, err
	}
	sc := ctx.comps
	if sc == nil {
		sc = &Scores{}
	}
	if sc.PrestigeStats.Iterations+sc.HeteroStats.Iterations > 0 {
		if err := e.stampSweep(sc, opts.Shards); err != nil {
			return nil, err
		}
	}
	sc.Importance = importance
	sc.Scorer = s.Name()
	sc.Pool = pool.Stats()
	return sc, nil
}

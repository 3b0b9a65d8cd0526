package core

import (
	"fmt"

	"scholarrank/internal/hetnet"
	"scholarrank/internal/shard"
	"scholarrank/internal/sparse"
	"scholarrank/internal/temporal"
)

// Engine ranks a fixed network repeatedly under varying options,
// caching what does not depend on them: one gap view of the network's
// citation operator (hetnet.SolverView.CitationTransition, swept
// Gauss–Seidel) per distinct RhoGap — an inverse out-weight per article
// and one weight per year gap, nothing per edge — and the warm fixed
// points. Parameter sweeps (F1, F2, the ablation table) skip the
// rebuild a fresh Rank call pays. Every walk runs in solver space, the
// network's chronological projection, and its scores are mapped back to
// original article order at the Scores boundary.
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
	// Previous fixed points in solver space, keyed by scorer-namespaced
	// spec keys (SolveContext.WarmStart/KeepWarm): the default pipeline
	// keeps one prestige vector per distinct RhoGap plus its hetero
	// vector. They only cut sweeps; no fixed point depends on them.
	warm map[string][]float64
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

// view returns the network's solver-order projection, built by the
// first solve over the network.
func (e *Engine) view() *hetnet.SolverView { return e.net.SolverView() }

// Network returns the wrapped network.
func (e *Engine) Network() *hetnet.Network { return e.net }

// Close does nothing: an Engine owns no goroutines. It is kept only
// because the benchmark module calls it.
func (e *Engine) Close() {}

// gapTransition returns the gap view of the citation operator bound to
// pool, built once per rho: the edge from a citing article u to a cited
// article v weighs exp(-rho·gap), gap = year[u] − year[v], and a
// citation of a younger article (an "in press" reference) weighs as gap
// zero. The weight is taken once per year gap into the view's table
// (sparse.Transition.GapWeighted). With rho = 0 it is the network's
// citation operator itself, shared with every engine and related-article
// index over the network and never mutated.
func (e *Engine) gapTransition(rho float64, pool *sparse.Pool) (*sparse.Transition, error) {
	if rho == 0 {
		return e.view().CitationTransition().WithPool(pool), nil
	}
	t, ok := e.gapTrans[rho]
	if !ok {
		kernel, err := temporal.NewExponential(rho)
		if err != nil {
			return nil, fmt.Errorf("core: gap kernel: %w", err)
		}
		weight := func(gap int) float64 { return kernel.Weight(float64(gap)) }
		if t, err = e.view().CitationTransition().GapWeighted(e.view().YearColumn, weight); err != nil {
			return nil, fmt.Errorf("core: gap operator: %w", err)
		}
		e.gapTrans[rho] = t
	}
	return t.WithPool(pool), nil
}

// stampSweep records on the result of a scorer that ran an iterative
// stage the back-edge fraction of the citation operator its walks swept
// and the shard label (Options.Shards): one shard, or for shards >= 2
// the edge-balanced partition of the solver-ordered citation graph,
// clamped at the row count, with one boundary exchange per shard per
// sweep. The label changes no sweep and stays only because the
// benchmark module reports it.
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

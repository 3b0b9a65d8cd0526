package rank

import (
	"context"
	"fmt"
	"sync"

	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// RelatedOptions configures related-article search.
type RelatedOptions struct {
	// Damping of the personalised walk; zero selects DefaultDamping.
	// Lower values stay closer to the seed's immediate neighbourhood.
	Damping float64
	// Workers sets mat-vec parallelism; values < 1 select NumCPU.
	Workers int
	// Iter controls convergence. A zero Iter.AitkenEvery selects
	// relatedAitkenEvery.
	Iter sparse.IterOptions
}

// relatedAitkenEvery is the Aitken Δ² cadence of the related walk when
// the options leave it 0 — the solver engine's own default cadence.
// The walk over A + Aᵀ has no triangular structure for a sweep order
// to exploit, so extrapolation is what cuts its sweep count, and it
// still does with certified stopping: on the 300k-article benchmark
// corpus (12 cold seeds) a certified top 10 takes 24–39 sweeps
// (median 32) with it and 52–62 (median 55.5) without it, against
// 39–58 to the 1e-9 residual with it and 95–97 without.
const relatedAitkenEvery = 4

// RelatedIndex answers related-article queries over one corpus with a
// personalised walk that follows citations in both directions
// (references and citers both signal relatedness). It holds no graph
// of its own: the walk runs in solver order over the two CSRs the
// network already has — the citation graph and the in-edge operator
// the solver built (sparse.TransposePair) — so building the index
// costs O(articles), and per-query cost is just the walk. The walks
// run on a sparse.Pool handle sized by Options.Workers; the index owns
// no goroutines and needs no Close.
type RelatedIndex struct {
	pair *sparse.TransposePair
	perm *sparse.Permutation // store order → solver order; nil when they coincide
	opts RelatedOptions
	// Per-walk scratch, recycled across queries: without it every cold
	// request would allocate nine corpus-sized vectors (≈ 21.6 MB at
	// 300k articles).
	scratch sync.Pool
}

// relatedScratch is one walk's working set: the driver's eight vectors
// and the vector that carries the scores back into store order.
type relatedScratch struct {
	walk  sparse.WalkScratch
	store []float64
}

// NewRelatedIndex builds the index for the network.
func NewRelatedIndex(net *hetnet.Network, opts RelatedOptions) (*RelatedIndex, error) {
	if opts.Damping == 0 {
		opts.Damping = DefaultDamping
	}
	if opts.Damping <= 0 || opts.Damping >= 1 {
		return nil, fmt.Errorf("%w: related damping %v", ErrBadParam, opts.Damping)
	}
	if opts.Iter.AitkenEvery == 0 {
		opts.Iter.AitkenEvery = relatedAitkenEvery
	}
	view := net.SolverView()
	pair, err := sparse.NewTransposePair(view.CitationTransition(), view.Citations, sparse.NewPool(opts.Workers))
	if err != nil {
		return nil, err
	}
	return newRelatedIndex(pair, view.Perm(), opts), nil
}

// newRelatedIndex wraps a bidirectional operator built in solver order;
// perm maps store order to that order (nil when they coincide).
func newRelatedIndex(pair *sparse.TransposePair, perm *sparse.Permutation, opts RelatedOptions) *RelatedIndex {
	ri := &RelatedIndex{pair: pair, perm: perm, opts: opts}
	ri.scratch.New = func() any { return new(relatedScratch) }
	return ri
}

// Close does nothing: the index owns no goroutines. It is kept only
// because the benchmark module calls it.
func (ri *RelatedIndex) Close() {}

// Related returns up to k articles most related to the seed, by the
// stationary mass of a random walk that restarts at the seed and
// follows citations in either direction. The seed itself is excluded.
// The walk stops as soon as the order of those k articles is proven
// (sparse.TransposePair.SeedWalk), or at Iter.Tol when a tie among
// them keeps it from being proven. A walk that stops at Iter.MaxIter
// still returns its ranking; callers that must tell use RelatedStats.
func (ri *RelatedIndex) Related(seed int32, k int) ([]int, error) {
	out, _, err := ri.RelatedStats(context.Background(), seed, k)
	return out, err
}

// RelatedStats is Related plus the walk's convergence statistics, with
// the walk stopping once ctx is done: it then returns the stats of the
// sweeps it ran and an error for which errors.Is(err, ctx.Err())
// holds.
func (ri *RelatedIndex) RelatedStats(ctx context.Context, seed int32, k int) ([]int, sparse.IterStats, error) {
	if n := ri.pair.N(); int(seed) < 0 || int(seed) >= n {
		return nil, sparse.IterStats{}, fmt.Errorf("%w: related seed %d of %d", ErrBadParam, seed, n)
	}
	if k <= 0 {
		return nil, sparse.IterStats{}, nil
	}
	sc := ri.scratch.Get().(*relatedScratch)
	defer ri.scratch.Put(sc)
	scores, stats, err := ri.walk(ctx, seed, k, sc)
	if err != nil {
		return nil, stats, err
	}
	scores[seed] = 0 // exclude the seed itself
	top := TopK(scores, k+1)
	out := make([]int, 0, k)
	for _, i := range top {
		if i == int(seed) || scores[i] == 0 {
			continue
		}
		out = append(out, i)
		if len(out) == k {
			break
		}
	}
	return out, stats, nil
}

// walk runs the personalised walk from seed (a store index) on sc and
// returns the stationary scores in store order, stopping once the
// order of the top k is certified (k = 0: at Iter.Tol). The result
// lives in sc and is valid only until sc is reused.
func (ri *RelatedIndex) walk(ctx context.Context, seed int32, k int, sc *relatedScratch) ([]float64, sparse.IterStats, error) {
	solverSeed := int(seed)
	if ri.perm != nil {
		solverSeed = int(ri.perm.Fwd()[seed])
	}
	scores, stats, err := ri.pair.SeedWalk(ctx, solverSeed, ri.opts.Damping, k, &sc.walk, ri.opts.Iter)
	if err != nil || ri.perm == nil {
		return scores, stats, err
	}
	// Back to store order before anything is selected, so ties still
	// break toward the lower store index.
	if cap(sc.store) < len(scores) {
		sc.store = make([]float64, len(scores))
	}
	sc.store = sc.store[:len(scores)]
	ri.perm.Restore(sc.store, scores)
	return sc.store, stats, nil
}

package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"scholarrank/internal/graph"
)

// Transition is the row-stochastic random-walk operator of a directed
// graph, stored in pull (transposed) form so that applying it to a
// vector parallelises cleanly across destination rows:
//
//	(Mᵀx)[v] = Σ_{u→v} x[u] · w(u,v) / W(u)
//
// where W(u) is the total out-weight of u. Nodes with no out-edges
// (dangling nodes) contribute no mass through M; the caller decides
// how to redistribute their mass (see DanglingMass).
//
// The operator stores no normalised per-edge weight. It keeps the
// 4-byte source of each in-edge and one inverse out-weight 1/W(u) per
// node, and every kernel gathers Σ xs[u]·w(u,v) from a source vector
// pre-scaled by it, xs = x·inv (Prescale). The edge weight w(u,v) is 1
// on an unweighted graph, the graph's own weight stream on a weighted
// one, and a per-gap table lookup on a gap view (GapWeighted), so a
// citation operator costs 4 bytes per edge however it is weighted.
//
// Parallelism comes from a *Pool shared across iterations and an
// edge-balanced chunk plan computed once at construction: rows are
// grouped into chunks of roughly equal edge count (see EdgeChunks),
// so the heavy-tailed in-degree of citation graphs does not serialise
// a kernel on its hottest chunk. A nil pool (or a plan with a single
// chunk, which is how small operators come out) runs every kernel
// inline.
type Transition struct {
	n            int
	offsets      []int64   // CSR over destinations; len n+1
	sources      []int32   // citing node for each in-edge
	inv          []float64 // 1/W(u) per node; 0 for a dangling node
	weights      []float64 // w(u,v) aligned with sources; nil unless the graph carries weights
	gap          *yearGap  // w(u,v) of a gap view (GapWeighted); nil otherwise
	dangling     []int32   // nodes with zero out-weight
	danglingMark []bool    // danglingMark[v] reports v ∈ dangling
	chunks       []int32   // edge-balanced row partition; len numChunks+1
	pool         *Pool
	gaussSeidel  bool  // sweeps in place, top row down (see GaussSeidel)
	back         int64 // in-edges a Gauss–Seidel sweep reads stale
}

// yearGap is the edge weight of a gap view. Years are held as offsets
// from the earliest, two bytes per node, so the column a sweep gathers
// beside the pre-scaled source stays small enough to sit in cache, and
// lut has one entry per signed year gap from −span to span: the edge
// u→v weighs lut[span+year[u]−year[v]], which is weight(max(0, gap)).
type yearGap struct {
	year []uint16
	span int
	lut  []float64
}

// maxYearSpan is the widest range of years a gap view takes.
const maxYearSpan = math.MaxUint16

// row returns the table a row of year offset yv indexes with its
// sources' year offsets.
func (g *yearGap) row(yv uint16) []float64 { return g.lut[g.span-int(yv):] }

// NewTransition builds the operator from g. Edge weights are taken
// from the graph when present, otherwise every edge has weight 1.
// pool supplies the parallelism of every kernel; nil selects serial
// execution. An operator is immutable once built: WithPool binds
// another pool to a view instead of mutating it, so one operator can
// be shared by goroutines that each bring their own pool.
func NewTransition(g *graph.Graph, pool *Pool) *Transition {
	n := g.NumNodes()
	t := &Transition{
		n:       n,
		offsets: make([]int64, n+1),
		inv:     make([]float64, n),
		pool:    pool,
	}
	// inv holds the out-weight until the edges are placed. Counting
	// sort by destination, straight into the operator's own CSR — no
	// intermediate transposed graph is materialised. Edges whose
	// source has zero out-weight are dropped here (the source is
	// treated as dangling).
	ndang := 0
	for u := 0; u < n; u++ {
		w := g.OutWeight(graph.NodeID(u))
		t.inv[u] = w
		if w <= 0 {
			ndang++
			continue
		}
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			t.offsets[int(v)+1]++
		}
	}
	for v := 0; v < n; v++ {
		t.offsets[v+1] += t.offsets[v]
	}
	m := t.offsets[n]
	t.sources = make([]int32, m)
	if g.Weighted() {
		t.weights = make([]float64, m)
	}
	cursor := make([]int64, n)
	copy(cursor, t.offsets[:n])
	t.dangling = make([]int32, 0, ndang)
	t.danglingMark = make([]bool, n)
	for u := 0; u < n; u++ {
		if t.inv[u] <= 0 {
			t.inv[u] = 0
			t.dangling = append(t.dangling, int32(u))
			t.danglingMark[u] = true
			continue
		}
		t.inv[u] = 1 / t.inv[u]
		ws := g.EdgeWeights(graph.NodeID(u))
		for i, v := range g.Neighbors(graph.NodeID(u)) {
			pos := cursor[v]
			cursor[v]++
			t.sources[pos] = int32(u)
			if ws != nil {
				t.weights[pos] = ws[i]
			}
		}
	}
	t.chunks = EdgeChunks(t.offsets)
	return t
}

// GapWeighted returns the gap view of t: the same CSR, dangling set,
// chunk plan, pool and sweep (GaussSeidel), nothing per edge copied,
// with the edge u→v weighing weight(max(0, year[u]−year[v])) in place
// of t's own weight. A citation one year or more younger than what it
// cites is discounted by its gap; one that cites a younger article (an
// "in press" reference) counts as gap zero. This is how the engine
// derives each gap-decayed citation operator from the network's one
// citation operator.
//
// year holds one integer year per node, spanning at most maxYearSpan
// years. weight is called once per gap from 0 to the span, into a
// table the sweeps index per edge, and must return a positive, finite
// value: edges dropped by the original construction stay dropped, and
// a node's dangling status cannot change. The view adds O(nodes): the
// inverse out-weight, summed in one pass over the edges, the year
// offsets and the table. Each row is normalised over u's out-edges,
// so a weight that depends only on u cancels: the result would be t's
// operator again, up to rounding.
func (t *Transition) GapWeighted(year []int32, weight func(gap int) float64) (*Transition, error) {
	if len(year) != t.n {
		return nil, fmt.Errorf("sparse: gap view of %d rows over %d years", t.n, len(year))
	}
	var lo, hi int32
	if t.n > 0 {
		lo, hi = slices.Min(year), slices.Max(year)
	}
	span := int(hi) - int(lo)
	if int64(hi)-int64(lo) > maxYearSpan {
		return nil, fmt.Errorf("sparse: gap view over years %d–%d spans more than %d years", lo, hi, maxYearSpan)
	}
	gap := &yearGap{year: make([]uint16, t.n), span: span, lut: make([]float64, 2*span+1)}
	for u, y := range year {
		gap.year[u] = uint16(y - lo)
	}
	for g := 0; g <= span; g++ {
		gap.lut[span+g] = weight(g)
	}
	for g := 0; g < span; g++ {
		gap.lut[g] = gap.lut[span] // a younger article cited: gap zero
	}
	view := *t
	view.weights, view.gap = nil, gap
	view.inv = make([]float64, t.n) // the out-weight, then its inverse
	for v := 0; v < t.n; v++ {
		lut := gap.row(gap.year[v])
		for _, u := range t.sources[t.offsets[v]:t.offsets[v+1]] {
			view.inv[u] += lut[gap.year[u]]
		}
	}
	for u, s := range view.inv {
		if s > 0 {
			view.inv[u] = 1 / s
		}
	}
	return &view, nil
}

// N returns the dimension of the operator.
func (t *Transition) N() int { return t.n }

// NumDangling returns the number of dangling nodes.
func (t *Transition) NumDangling() int { return len(t.dangling) }

// NumChunks reports the size of the edge-balanced chunk plan. A value
// of 1 means every kernel runs serially regardless of the pool.
func (t *Transition) NumChunks() int { return t.numChunks() }

func (t *Transition) numChunks() int { return len(t.chunks) - 1 }

// WithPool returns a view of t — the same CSR, weights, chunk plan and
// sweep, nothing copied — whose kernels run on p. A nil pool selects
// serial execution. t itself is not modified.
func (t *Transition) WithPool(p *Pool) *Transition {
	view := *t
	view.pool = p
	return &view
}

// GaussSeidel returns a view of t — the same CSR, weights and worker
// pool, nothing copied — whose sweeps (DampedStep, BlendStep and the
// walks built on them) are Gauss–Seidel sweeps. A Transition from
// NewTransition sweeps Jacobi: every row gathers from the previous
// iterate.
//
// Solver order is chronological: cited articles sit at low rows and
// citing articles at high rows, so a row's sources lie (almost all)
// above it and the pull-form operator is (nearly) upper triangular. A
// Gauss–Seidel sweep is one serial pass over the rows, top row first,
// in place: each row writes its pre-scaled value into the source
// vector as it produces it, so a row reads a source above it fresh and
// any other as it was in src (Transition.sweep). It solves the
// triangular part exactly; only back edges (a source at or below its
// row) and the layers coupled in from outside iterate. The pass does
// not use the worker pool, so the result is the same bit for bit at
// every worker count.
//
// Mixing fresh and stale rows breaks the exact mass conservation the
// damped step relies on; the sweeps therefore take the restart
// coefficient from src once and renormalise dst (DampedStep,
// BlendStep). The fixed point is that of the Jacobi walk.
//
// The back edges are counted here, once; a gap view (GapWeighted)
// shares the row structure and copies both the sweep and the count.
func (t *Transition) GaussSeidel() *Transition {
	view := *t
	view.gaussSeidel = true
	view.back = 0
	for v := 0; v < t.n; v++ {
		view.back += int64(firstAtLeast(t.sources[t.offsets[v]:t.offsets[v+1]], int32(v)+1))
	}
	return &view
}

// firstAtLeast returns the index of the first entry of the ascending
// row that is >= x. In chronological order nearly every row lies
// wholly on one side, so the ends are tried before the search.
func firstAtLeast(row []int32, x int32) int {
	if len(row) == 0 || row[0] >= x {
		return 0
	}
	if row[len(row)-1] < x {
		return len(row)
	}
	return sort.Search(len(row), func(i int) bool { return row[i] >= x })
}

// BackEdgeFraction returns the share of a Gauss–Seidel operator's
// in-edges whose source row is not above the row it points at — the
// edges a top-down sweep reads stale. Zero means the operator is
// strictly triangular in solver order and one sweep is exact; on real
// corpora (same-year citation cycles, "in press" references) it
// predicts the sweep count. A Jacobi operator reports zero.
func (t *Transition) BackEdgeFraction() float64 {
	if m := len(t.sources); m > 0 {
		return float64(t.back) / float64(m)
	}
	return 0
}

// DanglingMass returns the total probability mass sitting on dangling
// nodes in x. Inside an iteration loop prefer the pipelined dangling
// mass returned by DampedStep/BlendStep; this method seeds the
// pipeline before the first iteration.
func (t *Transition) DanglingMass(x []float64) float64 {
	var s float64
	for _, u := range t.dangling {
		s += x[u]
	}
	return s
}

// MulVec computes dst = Mᵀ·x, overwriting dst. dst and x must both
// have length N() and must not alias. It is a Jacobi product whatever
// the operator's sweep: x is pre-scaled into a recycled scratch vector
// (Prescale), then every row gathers from it. Both passes are
// parallelised over the edge-balanced chunk plan whenever the pool has
// more than one worker and the plan has more than one chunk (i.e. the
// operator carries enough edges for parallelism to pay off).
func (t *Transition) MulVec(dst, x []float64) {
	scratch := scaledPool.Get().(*[]float64)
	xs := sized(scratch, t.n)
	t.Prescale(xs, x)
	reduceChunks(t.pool, t.chunks, func(lo, hi int) stepPartial {
		for v := lo; v < hi; v++ {
			dst[v] = t.rowSum(xs, v)
		}
		return stepPartial{}
	})
	scaledPool.Put(scratch)
}

// scaledPool recycles MulVec's pre-scaled source vectors.
var scaledPool = sync.Pool{New: func() any { return new([]float64) }}

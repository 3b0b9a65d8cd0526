package sparse

import (
	"sort"

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
	norm         []float64 // w(u,v)/W(u), aligned with sources
	dangling     []int32   // nodes with zero out-weight
	danglingMark []bool    // danglingMark[v] reports v ∈ dangling
	chunks       []int32   // edge-balanced row partition; len numChunks+1
	pool         *Pool
	gaussSeidel  bool  // sweeps in place, top row down (see GaussSeidel)
	back         int64 // in-edges a Gauss–Seidel sweep reads stale
}

// NewTransition builds the operator from g. Edge weights are taken
// from the graph when present, otherwise every edge has weight 1.
// pool supplies the parallelism of every kernel; nil selects serial
// execution. An operator is immutable once built: WithPool binds
// another pool to a view instead of mutating it, so one operator can
// be shared by goroutines that each bring their own pool.
func NewTransition(g *graph.Graph, pool *Pool) *Transition {
	n := g.NumNodes()
	outW := make([]float64, n)
	for u := 0; u < n; u++ {
		outW[u] = g.OutWeight(graph.NodeID(u))
	}
	t := &Transition{
		n:       n,
		offsets: make([]int64, n+1),
		pool:    pool,
	}
	// Counting sort by destination, straight into the operator's own
	// CSR — no intermediate transposed graph is materialised. Edges
	// whose source has zero out-weight are dropped here (the source is
	// treated as dangling).
	for u := 0; u < n; u++ {
		if outW[u] <= 0 {
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
	t.norm = make([]float64, m)
	cursor := make([]int64, n)
	copy(cursor, t.offsets[:n])
	for u := 0; u < n; u++ {
		if outW[u] <= 0 {
			continue
		}
		vs := g.Neighbors(graph.NodeID(u))
		ws := g.EdgeWeights(graph.NodeID(u))
		if ws == nil {
			nrm := 1 / outW[u]
			for _, v := range vs {
				pos := cursor[v]
				cursor[v]++
				t.sources[pos] = int32(u)
				t.norm[pos] = nrm
			}
		} else {
			for i, v := range vs {
				pos := cursor[v]
				cursor[v]++
				t.sources[pos] = int32(u)
				t.norm[pos] = ws[i] / outW[u]
			}
		}
	}
	t.danglingMark = make([]bool, n)
	for u := 0; u < n; u++ {
		if outW[u] <= 0 {
			t.dangling = append(t.dangling, int32(u))
			t.danglingMark[u] = true
		}
	}
	t.chunks = EdgeChunks(t.offsets)
	return t
}

// Reweighted returns a new operator over the same edge structure with
// edge weights redefined by weight(u, v) for each retained edge u→v.
// The CSR layout, chunk plan, dangling set and sweep (GaussSeidel) are
// shared with the receiver, so only the normalised weights are
// recomputed — two passes over the edges, no graph rebuild, no sort.
// This is how the engine derives each gap-decayed citation operator
// from the base citation operator.
//
// weight must return a positive, finite value: edges dropped by the
// original construction stay dropped, and a node's dangling status
// cannot change under reweighting.
func (t *Transition) Reweighted(weight func(u, v int32) float64) *Transition {
	nt := &Transition{
		n:            t.n,
		offsets:      t.offsets,
		sources:      t.sources,
		norm:         make([]float64, len(t.norm)),
		dangling:     t.dangling,
		danglingMark: t.danglingMark,
		chunks:       t.chunks,
		pool:         t.pool,
		gaussSeidel:  t.gaussSeidel,
		back:         t.back,
	}
	outW := make([]float64, t.n)
	for v := 0; v < t.n; v++ {
		for i := t.offsets[v]; i < t.offsets[v+1]; i++ {
			u := t.sources[i]
			w := weight(u, int32(v))
			nt.norm[i] = w
			outW[u] += w
		}
	}
	for v := 0; v < t.n; v++ {
		for i := t.offsets[v]; i < t.offsets[v+1]; i++ {
			if s := outW[t.sources[i]]; s > 0 {
				nt.norm[i] /= s
			}
		}
	}
	return nt
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
// in place: dst starts as a copy of src and each row is overwritten
// with its new value, so a row reads a source above it fresh and any
// other as it was in src (Transition.sweep). It solves the triangular
// part exactly; only back edges (a source at or below its row) and the
// layers coupled in from outside iterate. The pass does not use the
// worker pool, so the result is the same bit for bit at every worker
// count.
//
// Mixing fresh and stale rows breaks the exact mass conservation the
// damped step relies on; the sweeps therefore take the restart
// coefficient from src once and renormalise dst (DampedStep,
// BlendStep). The fixed point is that of the Jacobi walk.
//
// The back edges are counted here, once; Reweighted shares the row
// structure and copies both the sweep and the count.
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
// have length N() and must not alias. The sweep is parallelised over
// the edge-balanced chunk plan whenever the pool has more than one
// worker and the plan has more than one chunk (i.e. the operator
// carries enough edges for parallelism to pay off).
func (t *Transition) MulVec(dst, x []float64) {
	nc := t.numChunks()
	if nc == 1 || t.pool.Workers() <= 1 {
		t.mulRange(dst, x, 0, t.n)
		return
	}
	t.pool.Run(nc, func(c int) {
		t.mulRange(dst, x, int(t.chunks[c]), int(t.chunks[c+1]))
	})
}

func (t *Transition) mulRange(dst, x []float64, lo, hi int) {
	offs := t.offsets
	for v := lo; v < hi; v++ {
		start, end := offs[v], offs[v+1]
		dst[v] = gatherEdges(0, x, t.sources[start:end], t.norm[start:end])
	}
}

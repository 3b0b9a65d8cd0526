package sparse

import (
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
	sched        *ShardSchedule // nil: the Jacobi sweep (see WithSchedule)
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
// The CSR layout, chunk plan and dangling set are shared with the
// receiver, so only the normalised weights are recomputed — two
// passes over the edges, no graph rebuild, no sort. This is how the
// engine derives each gap-decayed citation operator from the base
// citation operator.
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
// schedule, nothing copied — whose kernels run on p. A nil pool selects
// serial execution. t itself is not modified.
func (t *Transition) WithPool(p *Pool) *Transition {
	view := *t
	view.pool = p
	return &view
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

package sparse

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"scholarrank/internal/graph"
)

// TransposePair is the random-walk operator of a directed graph read
// in both directions — the walk over A + Aᵀ in which a step from u
// moves to a uniformly chosen neighbour, citing or cited:
//
//	(Px)[v] = Σ_{u ∈ in(v) ∪ out(v)} x[u] / deg(u),   deg(u) = |in(u) ∪ out(u)|
//
// It owns no copy of the graph. Row v gathers over v's in-edges (the
// CSR of the graph's pull-form Transition) and then over its out-edges
// (the graph's own CSR), from a source vector pre-scaled by 1/deg, so
// the only per-edge bytes a sweep reads are the two 4-byte endpoint
// streams that already exist. What the operator adds is O(rows): the
// inverse-degree vector (zero marks an isolated node, the dangling set
// of this walk), a chunk plan balanced over in+out degree, and the
// reciprocal list — for each row with a neighbour on both sides (u→v
// and v→u, or a self-loop), the neighbours to subtract once so that a
// pair counts once, as it does in a deduplicated symmetrised graph.
// Citation graphs are nearly acyclic, so that list is normally empty.
type TransposePair struct {
	n      int
	inOff  []int64 // in-edge CSR: the pull-form Transition's rows
	inIdx  []int32
	outOff []int64 // out-edge CSR: the graph's rows
	outIdx []int32
	invDeg []float64 // 1/deg(v); 0 for an isolated node
	chunks []int32   // row plan balanced over in+out degree

	// Rows whose in- and out-neighbours intersect, ascending; row
	// recipRows[i] subtracts recipIdx[recipOff[i]:recipOff[i+1]]
	// (recipOff starts at 0, one entry more than recipRows).
	recipRows []int32
	recipOff  []int64
	recipIdx  []int32

	pool *Pool
}

// NewTransposePair pairs in — the pull-form operator NewTransition
// built from out, unweighted — with out itself. Nothing proportional to
// the edge count is allocated; the one pass over the edges is the
// merge that finds reciprocal neighbours, and it skips every row whose
// in- and out-neighbour ranges do not overlap. pool supplies the
// parallelism of the walk's sweeps and is only borrowed.
func NewTransposePair(in *Transition, out *graph.Graph, pool *Pool) (*TransposePair, error) {
	outOff, outIdx := out.CSR()
	if in.n != out.NumNodes() || len(in.sources) != len(outIdx) || out.Weighted() {
		return nil, fmt.Errorf("sparse: transpose pair needs the pull form of one unweighted graph: in-CSR %d rows %d edges, out-CSR %d rows %d edges, weighted=%v",
			in.n, len(in.sources), out.NumNodes(), len(outIdx), out.Weighted())
	}
	n := in.n
	p := &TransposePair{
		n:     n,
		inOff: in.offsets, inIdx: in.sources,
		outOff: outOff, outIdx: outIdx,
		invDeg:   make([]float64, n),
		recipOff: []int64{0},
		pool:     pool,
	}
	for v := 0; v < n; v++ {
		ins := p.inIdx[p.inOff[v]:p.inOff[v+1]]
		outs := p.outIdx[p.outOff[v]:p.outOff[v+1]]
		deg := len(ins) + len(outs)
		// Both rows ascend, so they can only share a neighbour where
		// their ranges overlap — never, for a row that cites the past
		// and is cited by the future.
		if len(ins) > 0 && len(outs) > 0 && ins[0] <= outs[len(outs)-1] && outs[0] <= ins[len(ins)-1] {
			before := len(p.recipIdx)
			for i, j := 0, 0; i < len(ins) && j < len(outs); {
				switch {
				case ins[i] < outs[j]:
					i++
				case ins[i] > outs[j]:
					j++
				default:
					p.recipIdx = append(p.recipIdx, ins[i])
					i++
					j++
				}
			}
			if shared := len(p.recipIdx) - before; shared > 0 {
				p.recipRows = append(p.recipRows, int32(v))
				p.recipOff = append(p.recipOff, int64(len(p.recipIdx)))
				deg -= shared
			}
		}
		if deg > 0 {
			p.invDeg[v] = 1 / float64(deg)
		}
	}
	p.chunks = chunkPlan(n, func(v int) int64 { return p.inOff[v] + p.outOff[v] },
		minChunkWork, maxChunksPerCPU*runtime.NumCPU())
	return p, nil
}

// N returns the dimension of the operator.
func (p *TransposePair) N() int { return p.n }

// rescale primes the walk's pipelined state for a source vector the
// sweep did not itself produce: scaled = x/deg, and the returned mass
// is what x holds on isolated nodes.
func (p *TransposePair) rescale(scaled, x []float64) (isolated float64) {
	for v, d := range p.invDeg {
		scaled[v] = x[v] * d
		if d == 0 {
			isolated += x[v]
		}
	}
	return isolated
}

// SeedWalk computes the stationary distribution of the damped walk
// over p that restarts at the single node seed:
//
//	x' = d·(Px + isolatedMass(x)·e_seed) + (1-d)·e_seed
//
// — DampedWalk over the symmetrised graph with a one-hot teleport,
// without the symmetrised graph and without the dense teleport. Each
// iteration is one fused sweep on the FixedPointExtrapolated driver: a
// row gathers its in- and out-neighbours from the pre-scaled source,
// adds the restart at the seed row, and writes the next iterate, its
// pre-scaled copy for the next sweep, and its share of the residual
// and isolated mass. Sums are reassociated relative to a walk over a
// merged CSR (in-edges, then out-edges, minus reciprocals), so the two
// agree to rounding, not bit for bit.
//
// Every vector the walk touches comes from ws (nil runs on a fresh
// scratch), so a caller that recycles one scratch per concurrent walk
// allocates nothing proportional to the graph per walk. The returned
// vector lives in ws. ctx is checked once per sweep; a walk whose ctx
// is done stops with an error wrapping ctx.Err() (see
// FixedPointExtrapolated).
func (p *TransposePair) SeedWalk(ctx context.Context, seed int, damping float64, ws *WalkScratch, opts IterOptions) ([]float64, IterStats, error) {
	if seed < 0 || seed >= p.n {
		return nil, IterStats{}, fmt.Errorf("sparse: seed walk over %d rows: seed %d", p.n, seed)
	}
	if ws == nil {
		ws = new(WalkScratch)
	}
	scaled, scaledNext := sized(&ws.scaled, p.n), sized(&ws.scaledNext, p.n)
	// The one-hot start is staged in scaledNext: the driver copies it
	// into its iterate before the first sweep overwrites it.
	init := scaledNext
	Fill(init, 0)
	init[seed] = 1
	isolated := p.rescale(scaled, init)
	step := func(dst, src []float64) float64 {
		tcoef := damping*isolated + 1 - damping
		part := reduceChunks(p.pool, p.chunks, func(lo, hi int) stepPartial {
			r, d := p.seedRange(dst, src, scaled, scaledNext, seed, damping, tcoef, lo, hi)
			return stepPartial{res: r, dang: d}
		})
		scaled, scaledNext = scaledNext, scaled
		isolated = part.dang
		return part.res
	}
	reseed := func(x []float64) { isolated = p.rescale(scaled, x) }
	return FixedPointExtrapolated(ctx, ws, init, step, reseed, opts)
}

// seedRange is the fused row body of SeedWalk over rows [lo, hi):
// scaled is the pre-scaled src, scaledNext receives the pre-scaled
// dst. It returns the rows' share of ||dst − src||₁ and of dst's mass
// on isolated nodes.
func (p *TransposePair) seedRange(dst, src, scaled, scaledNext []float64, seed int, damping, tcoef float64, lo, hi int) (res, isolated float64) {
	inOff, outOff := p.inOff, p.outOff
	// recipRow(i) is the i-th row with reciprocals, or past the end.
	recipRow := func(i int) int {
		if i < len(p.recipRows) {
			return int(p.recipRows[i])
		}
		return p.n
	}
	ri := sort.Search(len(p.recipRows), func(i int) bool { return int(p.recipRows[i]) >= lo })
	nextRecip := recipRow(ri)
	for v := lo; v < hi; v++ {
		// Four running sums: the gathers are independent loads, and a
		// single accumulator would serialise them on its add chain.
		var s0, s1, s2, s3 float64
		row := p.inIdx[inOff[v]:inOff[v+1]]
		for len(row) >= 4 {
			s0 += scaled[row[0]]
			s1 += scaled[row[1]]
			s2 += scaled[row[2]]
			s3 += scaled[row[3]]
			row = row[4:]
		}
		for _, u := range row {
			s0 += scaled[u]
		}
		row = p.outIdx[outOff[v]:outOff[v+1]]
		for len(row) >= 4 {
			s0 += scaled[row[0]]
			s1 += scaled[row[1]]
			s2 += scaled[row[2]]
			s3 += scaled[row[3]]
			row = row[4:]
		}
		for _, u := range row {
			s1 += scaled[u]
		}
		s := (s0 + s1) + (s2 + s3)
		if v == nextRecip {
			for _, u := range p.recipIdx[p.recipOff[ri]:p.recipOff[ri+1]] {
				s -= scaled[u]
			}
			ri++
			nextRecip = recipRow(ri)
		}
		y := damping * s
		if v == seed {
			y += tcoef
		}
		dst[v] = y
		d := p.invDeg[v]
		scaledNext[v] = y * d
		res += math.Abs(y - src[v])
		if d == 0 {
			isolated += y
		}
	}
	return res, isolated
}

package sparse

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// minChunkWork is the amount of work (matrix rows plus edges) below
// which splitting a chunk further is not worth the scheduling
// overhead. The serial/parallel decision of every kernel derives from
// it: a chunk plan with a single chunk runs inline.
const minChunkWork = 16 << 10

// maxChunksPerCPU controls how fine the chunk plan is relative to the
// host. Several chunks per worker lets the pool's dynamic task
// claiming even out chunks that are cheap in edges but expensive in
// cache misses.
const maxChunksPerCPU = 8

// EdgeChunks partitions the rows of a CSR structure (offsets has one
// entry per row plus a terminator) into contiguous chunks of roughly
// equal work, where the work of a row is its edge count plus a
// constant. Boundaries are located by binary search over the offsets
// array, so heavy-tailed in-degree distributions (a handful of
// heavily cited articles) split into many small row ranges while long
// runs of rarely cited articles coalesce. The returned slice holds
// the chunk boundaries: chunk c covers rows [starts[c], starts[c+1]).
//
// Plans are sized for runtime.NumCPU; a structure whose total work is
// below the serial threshold yields a single chunk, which every
// kernel in this package executes inline.
func EdgeChunks(offsets []int64) []int32 {
	return chunkPlan(len(offsets)-1, func(v int) int64 { return offsets[v] },
		minChunkWork, maxChunksPerCPU*runtime.NumCPU())
}

// chunkPlan is EdgeChunks over any monotone cumulative edge count, with
// the plan's granularity explicit: edgesBefore(v) is the number of
// edges in rows below v, for v in [0, n]. An operator whose rows gather
// from two CSRs plans over the sum of their offsets without
// materialising it.
func chunkPlan(n int, edgesBefore func(v int) int64, minWork, maxChunks int) []int32 {
	if n < 0 {
		return []int32{0}
	}
	// work(v) = edges(v) + 1, cumulative work before row v is
	// edgesBefore(v) - edgesBefore(0) + v.
	base := edgesBefore(0)
	total := edgesBefore(n) - base + int64(n)
	parts := int(total / int64(minWork))
	if parts > maxChunks {
		parts = maxChunks
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	starts := make([]int32, 1, parts+1)
	for c := 1; c < parts; c++ {
		target := base + total*int64(c)/int64(parts)
		// First row v whose cumulative work reaches the target.
		v := sort.Search(n, func(v int) bool {
			return edgesBefore(v)+int64(v) >= target
		})
		if last := int(starts[len(starts)-1]); v <= last {
			continue // degenerate row distribution; skip empty chunk
		}
		starts = append(starts, int32(v))
	}
	return append(starts, int32(n))
}

// stepPartial carries one chunk's contribution to the fused-step
// reductions. It is padded to a cache line so neighbouring chunks
// never false-share.
type stepPartial struct {
	res  float64 // Σ |dst[v] - src[v]|
	sum  float64 // Σ dst[v]
	dang float64 // Σ dst[v] over dangling rows
	_    [5]float64
}

var partialsPool = sync.Pool{
	New: func() any { return new([]stepPartial) },
}

func getPartials(n int) *[]stepPartial {
	p := partialsPool.Get().(*[]stepPartial)
	if cap(*p) < n {
		*p = make([]stepPartial, n)
	}
	*p = (*p)[:n]
	for i := range *p {
		(*p)[i] = stepPartial{}
	}
	return p
}

// reducePartials folds the chunk partials with a pairwise tree
// reduction. Beyond limiting float error growth, the fixed pairing
// order makes the reduced values independent of which worker ran
// which chunk, so results are bit-for-bit reproducible across runs
// and worker counts.
func reducePartials(parts []stepPartial) stepPartial {
	for n := len(parts); n > 1; {
		h := (n + 1) / 2
		for i := 0; i+h < n; i++ {
			parts[i].res += parts[i+h].res
			parts[i].sum += parts[i+h].sum
			parts[i].dang += parts[i+h].dang
		}
		n = h
	}
	if len(parts) == 0 {
		return stepPartial{}
	}
	return parts[0]
}

// reduceChunks runs body over every chunk of a row plan and folds the
// chunk partials with reducePartials. A plan with one chunk, or a pool
// with one worker, runs the whole range inline. It is the one place a
// sweep meets the worker pool: the Jacobi kernels pass the operator's
// plan, the transpose-pair walk its own.
func reduceChunks(pool *Pool, chunks []int32, body func(lo, hi int) stepPartial) stepPartial {
	nc := len(chunks) - 1
	if nc == 1 || pool.Workers() <= 1 {
		return body(int(chunks[0]), int(chunks[nc]))
	}
	parts := getPartials(nc)
	ps := *parts
	pool.Run(nc, func(c int) {
		ps[c] = body(int(chunks[c]), int(chunks[c+1]))
	})
	total := reducePartials(ps)
	partialsPool.Put(parts)
	return total
}

// sweep runs a row body over every row of t once, for a step from src
// into dst. The body gathers row v's sources from the vector it is
// handed. For a Jacobi operator that is src, and the operator's chunk
// plan runs on the pool. For a Gauss–Seidel one (see GaussSeidel) it
// is dst itself, primed with src and overwritten in one serial pass
// from the top row down, so a source above the row is read fresh and
// any other still holds its src value.
func (t *Transition) sweep(dst, src []float64, body func(x []float64, lo, hi int) stepPartial) stepPartial {
	if !t.gaussSeidel {
		return reduceChunks(t.pool, t.chunks, func(lo, hi int) stepPartial { return body(src, lo, hi) })
	}
	copy(dst, src)
	return body(dst, 0, t.n)
}

// gatherEdges adds Σ x[idx[i]]·nrm[i] to s.
func gatherEdges(s float64, x []float64, idx []int32, nrm []float64) float64 {
	nrm = nrm[:len(idx)] // elides the nrm[i] bounds check
	for i, u := range idx {
		s += x[u] * nrm[i]
	}
	return s
}

// unitScale returns 1/sum, or 1 when sum cannot be normalised by.
func unitScale(sum float64) float64 {
	if sum == 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return 1
	}
	return 1 / sum
}

// DampedStep performs one fused iteration of the damped random walk:
//
//	dst = damping·(Mᵀsrc + danglingMass·teleport) + (1-damping)·teleport
//
// in a single sweep over the matrix, returning the L1 residual
// ||dst - src||₁, the total mass Σ dst the sweep produced, and the
// dangling mass of dst. The returned dangling mass is the danglingMass
// argument of the *next* iteration (dangling accumulation is pipelined
// into the sweep that produces the vector, so no separate pass over
// the dangling set is ever needed mid-iteration). danglingMass must be
// the dangling mass of src — use DanglingMass(src) to start the
// pipeline.
//
// On a Gauss–Seidel operator rows read the sources already produced
// this sweep from dst. The restart coefficient is still taken from src
// once, so the sweep does not conserve mass; dst is renormalised to
// unit mass in a second pass that also measures the residual, and the
// returned dangling mass is that of the renormalised vector. On an
// acyclic operator swept in topological order this makes one sweep
// exact from any src: dst solves the triangular system up to the
// scalar the renormalisation fixes.
func (t *Transition) DampedStep(dst, src, teleport []float64, damping, danglingMass float64) (res, sum, danglingNext float64) {
	// dst[v] = damping·s + (damping·dm + 1 - damping)·teleport[v]
	tcoef := damping*danglingMass + 1 - damping
	p := t.sweep(dst, src, func(x []float64, lo, hi int) stepPartial {
		return t.dampedRange(dst, x, src, teleport, damping, tcoef, lo, hi)
	})
	if !t.gaussSeidel {
		return p.res, p.sum, p.dang
	}
	inv := unitScale(p.sum)
	return t.ScaleDiffStep(dst, src, inv), p.sum, p.dang * inv
}

// dampedRange is the row body of DampedStep over rows [lo, hi), top
// row first — the order a Gauss–Seidel sweep needs. Sources are gathered
// from x (see sweep).
func (t *Transition) dampedRange(dst, x, src, teleport []float64, damping, tcoef float64, lo, hi int) (p stepPartial) {
	offs, mark := t.offsets, t.danglingMark
	for v := hi - 1; v >= lo; v-- {
		start, end := offs[v], offs[v+1]
		y := damping*gatherEdges(0, x, t.sources[start:end], t.norm[start:end]) + tcoef*teleport[v]
		dst[v] = y
		p.res += math.Abs(y - src[v])
		p.sum += y
		if mark[v] {
			p.dang += y
		}
	}
	return p
}

// AuxGather folds a bipartite layer into a blend sweep without
// materialising the layer's spread vector: row v receives
// Σ Vec[Idx[k]] for k in [Off[v], Off[v+1]). Vec must already carry
// any per-entity scaling (see hetnet's scaled gather kernels).
type AuxGather struct {
	Off []int64
	Idx []int32
	Vec []float64
}

func (g *AuxGather) at(v int) float64 {
	var s float64
	for _, e := range g.Idx[g.Off[v]:g.Off[v+1]] {
		s += g.Vec[e]
	}
	return s
}

// AuxLookup folds a single-assignment layer into a blend sweep: row v
// receives Vec[Of[v]] when Of[v] >= 0 and 0 otherwise (the sentinel
// for rows outside the layer).
type AuxLookup struct {
	Of  []int32
	Vec []float64
}

func (l *AuxLookup) at(v int) float64 {
	if o := l.Of[v]; o >= 0 {
		return l.Vec[o]
	}
	return 0
}

// BlendStep is the fused heterogeneous-walk step used by QISA-Rank's
// article–author–venue iteration. In one sweep it computes the
// citation mat-vec and blends it with the restart vector r and the
// author and venue layers, gathered inline from fa and fv:
//
//	dst[v] = λc·((Mᵀsrc)[v] + dm·r[v]) + λa·(fa(v) + aLeak·r[v])
//	       + λv·(fv(v) + vLeak·r[v]) + λt·r[v]
//
// where fa(v) sums the (pre-scaled) author scores of row v and fv(v)
// looks up the (pre-scaled) venue score of row v, so the spread
// passes that would otherwise materialise those two vectors never
// run. fa and fv may be nil when their λ is zero. It returns Σ dst
// (for the caller's re-normalisation with ScaleDiffStep) and the
// dangling mass of the unnormalised dst (pipelined, like DampedStep;
// the caller scales it by the same factor). dst and src must not
// alias.
//
// On a Gauss–Seidel operator the citation term sweeps exactly as in
// DampedStep. The layers and their leaks are gathered from src by the
// caller before the sweep, so their coupling stays barrier-synchronous
// and the fixed point is unchanged.
func (t *Transition) BlendStep(dst, src, r []float64, fa *AuxGather, fv *AuxLookup, lc, la, lv, lt, dm, aLeak, vLeak float64) (sum, danglingNext float64) {
	// The constant-vector terms — dangling mass, layer leaks and the
	// time restart — fold into the single multiplier of r.
	rcoef := lc*dm + lt
	if fa != nil {
		rcoef += la * aLeak
	}
	if fv != nil {
		rcoef += lv * vLeak
	}
	p := t.sweep(dst, src, func(x []float64, lo, hi int) stepPartial {
		return t.blendRange(dst, x, r, fa, fv, lc, la, lv, rcoef, lo, hi)
	})
	return p.sum, p.dang
}

// blendRange is the row body of BlendStep over rows [lo, hi), top row
// first.
func (t *Transition) blendRange(dst, x, r []float64, fa *AuxGather, fv *AuxLookup, lc, la, lv, rcoef float64, lo, hi int) (p stepPartial) {
	offs, mark := t.offsets, t.danglingMark
	for v := hi - 1; v >= lo; v-- {
		start, end := offs[v], offs[v+1]
		y := lc*gatherEdges(0, x, t.sources[start:end], t.norm[start:end]) + rcoef*r[v]
		if fa != nil {
			y += la * fa.at(v)
		}
		if fv != nil {
			y += lv * fv.at(v)
		}
		dst[v] = y
		p.sum += y
		if mark[v] {
			p.dang += y
		}
	}
	return p
}

// ScaleDiffStep rescales dst in place by scale and returns the L1
// distance ||scale·dst - src||₁ in the same parallel sweep. It is the
// fused normalise-and-measure tail of the heterogeneous step: the
// blend sweep produces an un-normalised vector and its sum; this
// sweep applies 1/sum and reports the residual against the previous
// iterate.
func (t *Transition) ScaleDiffStep(dst, src []float64, scale float64) (res float64) {
	return reduceChunks(t.pool, t.chunks, func(lo, hi int) stepPartial {
		return stepPartial{res: scaleDiffRange(dst, src, scale, lo, hi)}
	}).res
}

func scaleDiffRange(dst, src []float64, scale float64, lo, hi int) (res float64) {
	for v := lo; v < hi; v++ {
		y := dst[v] * scale
		dst[v] = y
		res += math.Abs(y - src[v])
	}
	return res
}

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

// sweep runs a row body over every row of t once. The body gathers
// each row's sources from xs, the pre-scaled src. For a Jacobi
// operator xs is read-only during the sweep, fresh is nil and the
// operator's chunk plan runs on the pool. For a Gauss–Seidel one (see
// GaussSeidel) fresh is xs itself, overwritten in one serial pass from
// the top row down with each row's pre-scaled value as it is produced,
// so a source above the row is read fresh and any other still holds
// its src value.
func (t *Transition) sweep(xs []float64, body func(fresh []float64, lo, hi int) stepPartial) stepPartial {
	if !t.gaussSeidel {
		return reduceChunks(t.pool, t.chunks, func(lo, hi int) stepPartial { return body(nil, lo, hi) })
	}
	return body(xs, 0, t.n)
}

// rowSum returns Σ_{u→v} xs[u]·w(u,v) over row v's in-edges, with xs
// the source pre-scaled by 1/W(u) — the gather of every kernel (the
// sweeps' stepRange inlines it). The edge weight takes one of three
// forms, fixed per operator: 1 (the citation operator), a per-gap
// table lookup (a gap view) or the graph's own weight stream (a
// weighted graph).
func (t *Transition) rowSum(xs []float64, v int) float64 {
	start, end := t.offsets[v], t.offsets[v+1]
	row := t.sources[start:end]
	switch {
	case t.gap != nil:
		return sumGap(xs, row, t.gap.year, t.gap.row(t.gap.year[v]))
	case t.weights != nil:
		return sumWeighted(xs, row, t.weights[start:end])
	}
	return sumPlain(xs, row)
}

// The three gathers of rowSum stay out of line: inlined into a row
// body, the compiler spills their loop state to the stack.

// sumPlain returns Σ xs[u] over the row's sources.
//
//go:noinline
func sumPlain(xs []float64, row []int32) (s float64) {
	for _, u := range row {
		s += xs[u]
	}
	return s
}

// sumWeighted returns Σ xs[u]·w[i] over the row's sources.
//
//go:noinline
func sumWeighted(xs []float64, row []int32, w []float64) (s float64) {
	w = w[:len(row)] // elides the w[i] bounds check
	for i, u := range row {
		s += xs[u] * w[i]
	}
	return s
}

// sumGap returns Σ xs[u]·lut[year[u]] over the row's sources, lut
// being the gap table of the row's year (yearGap.row). Each term waits
// on two gathers, the source and its year, so the sum runs on four
// accumulators: a term that misses the cache then holds up one chain
// of adds, not the whole row. (The plain and weighted gathers keep one
// accumulator, the order the citation walks have always summed in.)
//
//go:noinline
func sumGap(xs []float64, row []int32, year []uint16, lut []float64) float64 {
	var s0, s1, s2, s3 float64
	for ; len(row) >= 4; row = row[4:] {
		s0 += xs[row[0]] * lut[year[row[0]]]
		s1 += xs[row[1]] * lut[year[row[1]]]
		s2 += xs[row[2]] * lut[year[row[2]]]
		s3 += xs[row[3]] * lut[year[row[3]]]
	}
	for _, u := range row {
		s0 += xs[u] * lut[year[u]]
	}
	return (s0 + s1) + (s2 + s3)
}

// Prescale writes xs = x·inv, the pre-scaled source every sweep of t
// gathers from, in one pass on the pool. A walk primes its xs with it
// before the first step and whenever the driver restarts from a vector
// the step did not produce; the steps keep it current after that.
func (t *Transition) Prescale(xs, x []float64) {
	inv := t.inv
	reduceChunks(t.pool, t.chunks, func(lo, hi int) stepPartial {
		for v := lo; v < hi; v++ {
			xs[v] = x[v] * inv[v]
		}
		return stepPartial{}
	})
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
// pipeline. xs is pipelined the same way: it must hold src pre-scaled
// (Prescale(xs, src) starts the pipeline), and on return it holds dst
// pre-scaled, ready for the next step.
//
// On a Gauss–Seidel operator rows read the sources already produced
// this sweep from xs. The restart coefficient is still taken from src
// once, so the sweep does not conserve mass; dst is renormalised to
// unit mass in a second pass that also measures the residual and
// refreshes xs, and the returned dangling mass is that of the
// renormalised vector. On an acyclic operator swept in topological
// order this makes one sweep exact from any src: dst solves the
// triangular system up to the scalar the renormalisation fixes. A
// Jacobi sweep leaves xs untouched until every row is written, then
// pre-scales dst into it in a pass of its own.
func (t *Transition) DampedStep(dst, src, xs, teleport []float64, damping, danglingMass float64) (res, sum, danglingNext float64) {
	// dst[v] = damping·s + (damping·dm + 1 - damping)·teleport[v]
	tcoef := damping*danglingMass + 1 - damping
	p := t.sweep(xs, func(fresh []float64, lo, hi int) stepPartial {
		return t.stepRange(dst, src, xs, fresh, teleport, nil, nil, damping, 0, 0, tcoef, lo, hi)
	})
	if !t.gaussSeidel {
		t.Prescale(xs, dst)
		return p.res, p.sum, p.dang
	}
	inv := unitScale(p.sum)
	return t.ScaleDiffStep(dst, src, xs, inv), p.sum, p.dang * inv
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
// alias. xs must hold src pre-scaled (Prescale); the ScaleDiffStep
// that follows leaves it holding the normalised dst pre-scaled.
//
// On a Gauss–Seidel operator the citation term sweeps exactly as in
// DampedStep. The layers and their leaks are gathered from src by the
// caller before the sweep, so their coupling stays barrier-synchronous
// and the fixed point is unchanged.
func (t *Transition) BlendStep(dst, src, xs, r []float64, fa *AuxGather, fv *AuxLookup, lc, la, lv, lt, dm, aLeak, vLeak float64) (sum, danglingNext float64) {
	// The constant-vector terms — dangling mass, layer leaks and the
	// time restart — fold into the single multiplier of r.
	rcoef := lc*dm + lt
	if fa != nil {
		rcoef += la * aLeak
	}
	if fv != nil {
		rcoef += lv * vLeak
	}
	p := t.sweep(xs, func(fresh []float64, lo, hi int) stepPartial {
		return t.stepRange(dst, src, xs, fresh, r, fa, fv, lc, la, lv, rcoef, lo, hi)
	})
	return p.sum, p.dang
}

// stepRange is the row body of DampedStep and BlendStep over rows
// [lo, hi), top row first — the order a Gauss–Seidel sweep needs:
//
//	dst[v] = lc·Σ_{u→v} xs[u]·w(u,v) + rcoef·r[v] + la·fa(v) + lv·fv(v)
//
// (a damped step is the blend with no layers). Sources are gathered
// from xs (rowSum), and each row's pre-scaled value goes to fresh when
// it is non-nil (see sweep).
func (t *Transition) stepRange(dst, src, xs, fresh, r []float64, fa *AuxGather, fv *AuxLookup, lc, la, lv, rcoef float64, lo, hi int) (p stepPartial) {
	offs, sources, weights, inv, mark := t.offsets, t.sources, t.weights, t.inv, t.danglingMark
	gap := t.gap
	for v := hi - 1; v >= lo; v-- {
		// rowSum, with the operator's fields read once per call.
		start, end := offs[v], offs[v+1]
		row := sources[start:end]
		var s float64
		switch {
		case gap != nil:
			s = sumGap(xs, row, gap.year, gap.row(gap.year[v]))
		case weights != nil:
			s = sumWeighted(xs, row, weights[start:end])
		default:
			s = sumPlain(xs, row)
		}
		y := lc*s + rcoef*r[v]
		if fa != nil {
			y += la * fa.at(v)
		}
		if fv != nil {
			y += lv * fv.at(v)
		}
		dst[v] = y
		if fresh != nil {
			fresh[v] = y * inv[v]
		}
		p.res += math.Abs(y - src[v])
		p.sum += y
		if mark[v] {
			p.dang += y
		}
	}
	return p
}

// ScaleDiffStep rescales dst in place by scale, refreshes xs to the
// rescaled dst pre-scaled (xs = dst·inv), and returns the L1 distance
// ||scale·dst - src||₁ in the same parallel sweep. It is the fused
// normalise-and-measure tail of the heterogeneous step: the blend
// sweep produces an un-normalised vector and its sum; this sweep
// applies 1/sum, readies the next sweep's source and reports the
// residual against the previous iterate.
func (t *Transition) ScaleDiffStep(dst, src, xs []float64, scale float64) (res float64) {
	return reduceChunks(t.pool, t.chunks, func(lo, hi int) stepPartial {
		return stepPartial{res: scaleDiffRange(dst, src, xs, t.inv, scale, lo, hi)}
	}).res
}

func scaleDiffRange(dst, src, xs, inv []float64, scale float64, lo, hi int) (res float64) {
	for v := lo; v < hi; v++ {
		y := dst[v] * scale
		dst[v] = y
		xs[v] = y * inv[v]
		res += math.Abs(y - src[v])
	}
	return res
}

package sparse

import (
	"fmt"
	"math"
)

// ShardSchedule turns a sweep over a Transition's rows into a block
// Gauss–Seidel sweep over contiguous row shards, without a second copy
// of the operator. Shards sweep in descending row order; a row's
// sources are ascending, so the sources that lie in shards above the
// row's own — the ones already produced this sweep — are a suffix of
// the row, starting at split[v]. A shard sweep is therefore the flat
// row-range body over the shard's rows, reading the previous iterate
// up to the split and the vector under construction after it: that
// read is the whole boundary-mass exchange.
//
// Solver order puts cited articles at low rows and citing articles at
// high rows, so the descending order propagates mass a whole citation
// chain per sweep instead of one hop — the same fixed point in
// substantially fewer sweeps. Mixing fresh and stale blocks breaks the
// exact mass conservation the damped step relies on, which would leave
// a mass-error mode decaying only at the damping rate; the damped
// sweep therefore refreshes the dangling mass at every shard barrier
// from a per-shard pipeline and renormalises the produced vector to
// unit mass.
//
// The schedule depends only on the operator's row structure, which
// Reweighted shares, so one schedule serves an operator and every
// reweighting of it. It is read-only after construction and holds
// O(rows) memory — nothing per edge.
type ShardSchedule struct {
	offsets []int64   // the row structure the schedule was built over
	bounds  []int32   // shard s covers rows [bounds[s], bounds[s+1])
	split   []int64   // split[v]: row v's first in-edge whose source lies above v's shard
	chunks  [][]int32 // chunks[s]: edge-balanced chunk plan over shard s's rows
}

// NewShardSchedule builds the sweep schedule of t's row structure over
// the given contiguous row bounds (len shards+1, strictly increasing
// from 0 to t.N()) — the Bounds of a shard.Plan.
func NewShardSchedule(t *Transition, bounds []int32) (*ShardSchedule, error) {
	if len(bounds) < 2 || bounds[0] != 0 || int(bounds[len(bounds)-1]) != t.n {
		return nil, fmt.Errorf("sparse: shard bounds %v do not cover [0,%d)", bounds, t.n)
	}
	for s := 1; s < len(bounds); s++ {
		if bounds[s] <= bounds[s-1] {
			return nil, fmt.Errorf("sparse: shard bounds %v not strictly increasing", bounds)
		}
	}
	sc := &ShardSchedule{
		offsets: t.offsets,
		bounds:  append([]int32(nil), bounds...),
		split:   make([]int64, t.n),
		chunks:  make([][]int32, len(bounds)-1),
	}
	for s := range sc.chunks {
		lo, hi := int(bounds[s]), int(bounds[s+1])
		for v := lo; v < hi; v++ {
			i := t.offsets[v+1]
			for i > t.offsets[v] && t.sources[i-1] >= bounds[s+1] {
				i--
			}
			sc.split[v] = i
		}
		plan := EdgeChunks(t.offsets[lo : hi+1])
		for c := range plan {
			plan[c] += bounds[s]
		}
		sc.chunks[s] = plan
	}
	return sc, nil
}

// NumShards returns the shard count of the schedule.
func (sc *ShardSchedule) NumShards() int { return len(sc.bounds) - 1 }

// WithSchedule returns a view of t — the same CSR, weights and worker
// pool, nothing copied — whose sweeps (DampedSweep, BlendSweep and the
// walks built on them) follow sc. The schedule must have been built
// over t's row structure: t itself, the operator it was reweighted
// from, or another reweighting of that operator.
func (t *Transition) WithSchedule(sc *ShardSchedule) (*Transition, error) {
	if len(sc.offsets) != len(t.offsets) || &sc.offsets[0] != &t.offsets[0] {
		return nil, fmt.Errorf("sparse: shard schedule was built over a different row structure")
	}
	view := *t
	view.sched = sc
	return &view, nil
}

// NumShards returns the number of shards t's sweeps are scheduled
// over; an operator without a schedule is one shard.
func (t *Transition) NumShards() int {
	if t.sched == nil {
		return 1
	}
	return t.sched.NumShards()
}

// Exchanges returns the boundary-mass exchanges that the given number
// of sweeps of t performs: one per shard per sweep, and none when the
// operator is a single shard with no boundary.
func (t *Transition) Exchanges(sweeps int) int {
	if k := t.NumShards(); k > 1 {
		return sweeps * k
	}
	return 0
}

// SeedDangling fills dang (len NumShards) with the per-shard dangling
// mass of x, seeding the pipeline DampedSweep and BlendSweep carry
// across iterations.
func (t *Transition) SeedDangling(x []float64, dang []float64) {
	if t.NumShards() == 1 {
		dang[0] = t.DanglingMass(x)
		return
	}
	Fill(dang, 0)
	s := 0
	for _, u := range t.dangling { // ascending, like the shard bounds
		for u >= t.sched.bounds[s+1] {
			s++
		}
		dang[s] += x[u]
	}
}

// DampedSweep performs one iteration of the damped walk under t's
// schedule and returns the L1 residual ||dst − src||₁. dang must hold
// src's per-shard dangling mass on entry (SeedDangling) and holds
// dst's on return — the pipelined replacement for a dangling scan per
// barrier. A single shard is DampedStep; several sweep in descending
// order, each reading the shards above it from dst, and the result is
// renormalised to unit mass (the residual is measured before that).
func (t *Transition) DampedSweep(dst, src, teleport []float64, damping float64, dang []float64) (res float64) {
	k := t.NumShards()
	if k == 1 {
		res, _, dang[0] = t.DampedStep(dst, src, teleport, damping, dang[0])
		return res
	}
	sc := t.sched
	var sum float64
	for s := k - 1; s >= 0; s-- {
		// Shards above s hold dst's fresh dangling mass already; the
		// rest still hold src's — the barrier-consistent mix.
		tcoef := damping*Sum(dang) + 1 - damping
		p := reduceChunks(t.pool, sc.chunks[s], func(lo, hi int) stepPartial {
			var r, sm, d float64
			if s == k-1 { // nothing lies above the top shard: the flat body
				r, sm, d = t.dampedRange(dst, src, teleport, damping, tcoef, lo, hi)
			} else {
				r, sm, d = t.dampedSplitRange(sc.split, dst, src, teleport, damping, tcoef, lo, hi)
			}
			return stepPartial{res: r, sum: sm, dang: d}
		})
		res += p.res
		sum += p.sum
		dang[s] = p.dang
	}
	if sum > 0 && !math.IsNaN(sum) && !math.IsInf(sum, 0) {
		inv := 1 / sum
		reduceChunks(t.pool, t.chunks, func(lo, hi int) stepPartial {
			Scale(dst[lo:hi], inv)
			return stepPartial{}
		})
		Scale(dang, inv)
	}
	return res
}

// BlendSweep is BlendStep under t's schedule: one heterogeneous-walk
// iteration, shard by shard. The author/venue layers and their leaks
// are gathered from src by the caller before the sweep (their coupling
// stays barrier-synchronous — the fixed point is unchanged). dang
// carries src's per-shard dangling mass in and dst's (unnormalised)
// out; the caller normalises dst with ScaleDiffStep and must scale
// dang by the same factor. Returns Σ dst.
func (t *Transition) BlendSweep(dst, src, r []float64, fa *AuxGather, fv *AuxLookup, lc, la, lv, lt, aLeak, vLeak float64, dang []float64) (sum float64) {
	k := t.NumShards()
	if k == 1 {
		sum, dang[0] = t.BlendStep(dst, src, r, fa, fv, lc, la, lv, lt, dang[0], aLeak, vLeak)
		return sum
	}
	sc := t.sched
	for s := k - 1; s >= 0; s-- {
		rcoef := restartCoef(fa, fv, lc, la, lv, lt, Sum(dang), aLeak, vLeak)
		p := reduceChunks(t.pool, sc.chunks[s], func(lo, hi int) stepPartial {
			var sm, d float64
			if s == k-1 { // nothing lies above the top shard: the flat body
				sm, d = t.blendRange(dst, src, r, fa, fv, lc, la, lv, rcoef, lo, hi)
			} else {
				sm, d = t.blendSplitRange(sc.split, dst, src, r, fa, fv, lc, la, lv, rcoef, lo, hi)
			}
			return stepPartial{sum: sm, dang: d}
		})
		sum += p.sum
		dang[s] = p.dang
	}
	return sum
}

package sparse

import (
	"fmt"
	"sort"
)

// ShardSchedule turns a sweep over a Transition's rows into a
// Gauss–Seidel sweep, without a second copy of the operator.
//
// Solver order is chronological: cited articles sit at low rows and
// citing articles at high rows, so a row's sources lie (almost all)
// above it and the pull-form operator is (nearly) upper triangular. A
// sweep that runs from the top row down and reads the rows it has
// already produced solves the triangular part exactly; only back edges
// (a source at or below its row) and the layers coupled in from
// outside iterate.
//
// A scheduled sweep is one serial pass over the rows, top row first,
// in place: dst starts as a copy of src and each row is overwritten
// with its new value, so a row reads a source above it fresh and any
// other as it was in src (Transition.sweep). The pass does not use the
// worker pool, so the result is the same bit for bit at every worker
// count.
//
// Mixing fresh and stale rows breaks the exact mass conservation the
// damped step relies on; the sweeps therefore take the restart
// coefficient from src once and renormalise dst (DampedStep,
// BlendStep).
//
// The schedule depends only on the operator's row structure, which
// Reweighted shares, so one schedule serves an operator and every
// reweighting of it. It is read-only after construction and holds no
// per-row or per-edge memory.
type ShardSchedule struct {
	offsets []int64 // the row structure the schedule was built over
	shards  int     // explicit shard count; 1 for the default schedule
	back    int64   // in-edges whose source is not above their row
}

// NewSweepSchedule builds the schedule of t's row structure, counting
// the back edges a sweep will read stale.
func NewSweepSchedule(t *Transition) *ShardSchedule {
	sc := &ShardSchedule{offsets: t.offsets, shards: 1}
	for v := 0; v < t.n; v++ {
		sc.back += int64(firstAtLeast(t.sources[t.offsets[v]:t.offsets[v+1]], int32(v)+1))
	}
	return sc
}

// NewShardSchedule builds the schedule of t's row structure for an
// explicit partition: bounds (len shards+1, strictly increasing from 0
// to t.N()) are the Bounds of a shard.Plan. A serial top-down sweep
// crosses shard boundaries like any other row boundary, so the sweep is
// that of NewSweepSchedule; the partition sets only the shard count the
// solve reports (NumShards, Exchanges).
func NewShardSchedule(t *Transition, bounds []int32) (*ShardSchedule, error) {
	if len(bounds) < 2 || bounds[0] != 0 || int(bounds[len(bounds)-1]) != t.n {
		return nil, fmt.Errorf("sparse: shard bounds %v do not cover [0,%d)", bounds, t.n)
	}
	for s := 1; s < len(bounds); s++ {
		if bounds[s] <= bounds[s-1] {
			return nil, fmt.Errorf("sparse: shard bounds %v not strictly increasing", bounds)
		}
	}
	sc := NewSweepSchedule(t)
	sc.shards = len(bounds) - 1
	return sc, nil
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

// NumShards returns the explicit shard count of the schedule; the
// default schedule is one shard.
func (sc *ShardSchedule) NumShards() int { return sc.shards }

// BackEdgeFraction returns the share of the operator's in-edges whose
// source row is not above the row it points at — the edges a top-down
// sweep reads stale. Zero means the operator is strictly triangular in
// solver order and one sweep is exact; on real corpora (same-year
// citation cycles, "in press" references) it predicts the sweep count.
func (sc *ShardSchedule) BackEdgeFraction() float64 {
	if m := sc.offsets[len(sc.offsets)-1] - sc.offsets[0]; m > 0 {
		return float64(sc.back) / float64(m)
	}
	return 0
}

// WithSchedule returns a view of t — the same CSR, weights and worker
// pool, nothing copied — whose sweeps (DampedStep, BlendStep and the
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

// NumShards returns the number of explicit shards t's sweeps are
// scheduled over; an operator without a schedule, or under the default
// one, is one shard.
func (t *Transition) NumShards() int {
	if t.sched == nil {
		return 1
	}
	return t.sched.NumShards()
}

// Exchanges returns the shard boundaries that the given number of
// sweeps of t crosses: one per explicit shard per sweep, and none when
// the operator is a single shard with no boundary.
func (t *Transition) Exchanges(sweeps int) int {
	if k := t.NumShards(); k > 1 {
		return sweeps * k
	}
	return 0
}

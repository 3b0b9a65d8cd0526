package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"scholarrank/internal/graph"
)

// evenBounds splits n rows into k equal-size contiguous shards — the
// sparse-level tests don't need the edge-balanced partitioner, any
// valid bounds must give the same fixed point.
func evenBounds(n, k int) []int32 {
	bounds := make([]int32, k+1)
	for s := 0; s <= k; s++ {
		bounds[s] = int32(n * s / k)
	}
	return bounds
}

func TestNewShardScheduleValidates(t *testing.T) {
	g := benchGraph(t, 100)
	tr := NewTransition(g, nil)
	for _, bounds := range [][]int32{
		nil,
		{0},
		{0, 50},          // does not reach n
		{10, 100},        // does not start at 0
		{0, 50, 50, 100}, // empty shard
		{0, 60, 40, 100}, // decreasing
	} {
		if _, err := NewShardSchedule(tr, bounds); err == nil {
			t.Errorf("bounds %v: want error", bounds)
		}
	}
	sc, err := NewShardSchedule(tr, []int32{0, 100})
	if err != nil {
		t.Fatalf("single shard: %v", err)
	}
	// A schedule serves the operator it was built over and every
	// reweighting of it, and nothing else.
	if _, err := tr.Reweighted(func(u, v int32) float64 { return 2 }).WithSchedule(sc); err != nil {
		t.Errorf("reweighted operator rejected its base's schedule: %v", err)
	}
	if _, err := NewTransition(g, nil).WithSchedule(sc); err == nil {
		t.Error("schedule accepted by an operator with its own row structure")
	}
}

// scheduled returns tr sweeping under the schedule for bounds.
func scheduled(tb testing.TB, tr *Transition, bounds []int32) *Transition {
	tb.Helper()
	sc, err := NewShardSchedule(tr, bounds)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := tr.WithSchedule(sc)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestTransitionRowsSourceAscending pins the invariant the schedule's
// back-edge count relies on: every row of NewTransition — and of
// Reweighted, which shares the structure — lists its sources in
// ascending order, so the sources above a row are a suffix.
func TestTransitionRowsSourceAscending(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"random":   benchGraph(t, 3000),
		"powerlaw": benchGraphPowerLaw(t, 3000),
	} {
		base := NewTransition(g, nil)
		for kind, tr := range map[string]*Transition{
			"new":        base,
			"reweighted": base.Reweighted(func(u, v int32) float64 { return 1 + float64(u%7) }),
		} {
			for v := 0; v < tr.n; v++ {
				row := tr.sources[tr.offsets[v]:tr.offsets[v+1]]
				for i := 1; i < len(row); i++ {
					if row[i] < row[i-1] {
						t.Fatalf("%s/%s: row %d sources %d then %d", name, kind, v, row[i-1], row[i])
					}
				}
			}
		}
	}
}

// TestShardScheduleAllocatesPerRow checks the schedule is a view, not
// a copy: building it over a 100k-row power-law operator allocates at
// most a word per row (today nothing), far below one word per edge.
func TestShardScheduleAllocatesPerRow(t *testing.T) {
	tr := NewTransition(benchGraphPowerLaw(t, 100_000), nil)
	bounds := evenBounds(tr.N(), 4)
	rows, edges := uint64(tr.N()), uint64(len(tr.sources))
	for _, tc := range []struct {
		name        string
		build       func() *ShardSchedule
		bytesPerRow uint64
	}{
		{"shards4", func() *ShardSchedule { sc, _ := NewShardSchedule(tr, bounds); return sc }, 8},
		{"default", func() *ShardSchedule { return NewSweepSchedule(tr) }, 8},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc := tc.build()
		runtime.ReadMemStats(&after)
		if sc == nil {
			t.Fatalf("%s: no schedule", tc.name)
		}
		got := after.TotalAlloc - before.TotalAlloc
		if limit := tc.bytesPerRow*rows + 1<<16; got > limit {
			t.Errorf("%s: schedule over %d rows allocated %d bytes, want <= %d", tc.name, rows, got, limit)
		}
		if got >= 8*edges {
			t.Errorf("%s: schedule allocated %d bytes over %d edges — per-edge memory", tc.name, got, edges)
		}
		runtime.KeepAlive(sc)
	}
}

// backEdgeGraph is benchGraph with the given share of citations
// reversed to point forward in id order — publication years perturbed
// against the citation direction — plus, when selfLoops is set, a
// self-loop on every seventh node.
func backEdgeGraph(tb testing.TB, n int, share float64, selfLoops bool) *graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	gb := graph.NewBuilder(n, false)
	for i := 1; i < n; i++ {
		for r := 0; r < 12; r++ {
			j := rng.Intn(i)
			if rng.Float64() < share {
				_ = gb.AddEdge(graph.NodeID(j), graph.NodeID(i))
			} else {
				_ = gb.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
		if selfLoops && i%7 == 0 {
			_ = gb.AddEdge(graph.NodeID(i), graph.NodeID(i))
		}
	}
	return gb.Build()
}

// scheduleCase is one way of scheduling an operator's sweeps: the
// default schedule or explicit even shards, on a pool of the given
// size. The sweep itself never uses the pool; the renormalising pass
// and the dangling scans around it do.
type scheduleCase struct {
	name            string
	workers, shards int // shards 0: the default schedule
}

var scheduleCases = []scheduleCase{
	{"default", 1, 0}, {"default-workers3", 3, 0}, {"shards1", 1, 1}, {"shards4", 3, 4},
}

// apply returns tr bound to a pool of c.workers and sweeping under
// c's schedule.
func (c scheduleCase) apply(tb testing.TB, tr *Transition) *Transition {
	tb.Helper()
	pool := NewPool(c.workers)
	tr = tr.WithPool(pool)
	if c.shards > 0 {
		return scheduled(tb, tr, evenBounds(tr.N(), c.shards))
	}
	st, err := tr.WithSchedule(NewSweepSchedule(tr))
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// naiveSweep is one scheduled damped sweep decided edge by edge rather
// than by split index: rows run from the top, and a source is read from
// the vector under construction when it lies above the row and from src
// otherwise.
func naiveSweep(tr *Transition, src, teleport []float64, damping float64) (dst []float64, res float64) {
	dst = make([]float64, tr.n)
	tcoef := damping*tr.DanglingMass(src) + 1 - damping
	for v := int32(tr.n) - 1; v >= 0; v-- {
		var acc float64
		for i := tr.offsets[v]; i < tr.offsets[v+1]; i++ {
			if u := tr.sources[i]; u > v {
				acc += dst[u] * tr.norm[i]
			} else {
				acc += src[u] * tr.norm[i]
			}
		}
		dst[v] = damping*acc + tcoef*teleport[v]
	}
	Scale(dst, 1/Sum(dst))
	return dst, L1Diff(dst, src)
}

// TestShardedSweepMatchesDampedStep checks one sweep under every
// schedule shape against the naive edge-by-edge sweep, on a graph with
// back edges and self-loops so that both runs of a row occur.
func TestShardedSweepMatchesDampedStep(t *testing.T) {
	tr := NewTransition(backEdgeGraph(t, 4000, 0.1, true), nil)
	n := tr.N()
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.Float64()
	}
	Normalize1(src)
	teleport := make([]float64, n)
	Uniform(teleport)
	const damping = 0.85

	for _, c := range scheduleCases {
		st := c.apply(t, tr)
		got := make([]float64, n)
		res, _, dang := st.DampedStep(got, src, teleport, damping, tr.DanglingMass(src))
		want, wantRes := naiveSweep(tr, src, teleport, damping)
		if d := MaxDiff(got, want); d > 1e-15 {
			t.Errorf("%s: sweep deviates from the naive sweep by %g", c.name, d)
		}
		if d := math.Abs(res - wantRes); d > 1e-12 {
			t.Errorf("%s: residual %g vs %g", c.name, res, wantRes)
		}
		if d := math.Abs(Sum(got) - 1); d > 1e-12 {
			t.Errorf("%s: sweep left mass %g off unit", c.name, d)
		}
		if d := math.Abs(dang - tr.DanglingMass(got)); d > 1e-13 {
			t.Errorf("%s: pipelined dangling %g vs scan %g", c.name, dang, tr.DanglingMass(got))
		}
	}
}

// literalJacobi is the damped walk written out with no kernel, plan or
// driver of this package: power iteration from the teleport vector
// until the L1 change drops below tol.
func literalJacobi(tr *Transition, damping float64, teleport []float64, tol float64) []float64 {
	x, y := Clone(teleport), make([]float64, tr.n)
	for it := 0; it < 5000; it++ {
		var dm, res float64
		for _, u := range tr.dangling {
			dm += x[u]
		}
		for v := 0; v < tr.n; v++ {
			var s float64
			for i := tr.offsets[v]; i < tr.offsets[v+1]; i++ {
				s += x[tr.sources[i]] * tr.norm[i]
			}
			y[v] = damping*(s+dm*teleport[v]) + (1-damping)*teleport[v]
			res += math.Abs(y[v] - x[v])
		}
		x, y = y, x
		if res < tol {
			break
		}
	}
	return x
}

// TestScheduledWalkMatchesJacobiOracle is the oracle test of the sweep
// schedule: under every schedule shape, on every graph shape, cold and
// warm, with Aitken extrapolation on and off, the scheduled walk
// reaches the fixed point of the literal Jacobi walk.
func TestScheduledWalkMatchesJacobiOracle(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(17))
	random := graph.NewBuilder(n, false)
	for i := 0; i < n; i++ {
		for r := 0; r < 8; r++ {
			_ = random.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(n)))
		}
	}
	powerlaw, _ := shuffled(t, rng, benchGraphPowerLaw(t, n))
	for _, fx := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", random.Build()},
		{"powerlaw", powerlaw},
		{"strict-dag", benchGraph(t, n)},
		{"year-perturbed", backEdgeGraph(t, n, 0.04, false)},
		{"self-loop", backEdgeGraph(t, n, 0, true)},
		{"all-dangling", graph.NewBuilder(n, false).Build()},
	} {
		t.Run(fx.name, func(t *testing.T) {
			tr := NewTransition(fx.g, nil)
			teleport := make([]float64, n)
			for i := range teleport {
				teleport[i] = 1 + float64(i%5)
			}
			Normalize1(teleport)
			want := literalJacobi(tr, 0.85, teleport, 1e-13)
			warm := Clone(want)
			for i := range warm {
				warm[i] *= 1 + 0.1*rng.Float64()
			}
			Normalize1(warm)
			for _, c := range scheduleCases {
				st := c.apply(t, tr)
				for _, init := range []struct {
					name string
					vec  []float64
				}{{"cold", teleport}, {"warm", warm}} {
					for _, aitken := range []int{0, 4} {
						got, stats, err := DampedWalkFrom(st, 0.85, teleport, init.vec,
							IterOptions{Tol: 1e-13, MaxIter: 2000, AitkenEvery: aitken})
						if err != nil {
							t.Fatal(err)
						}
						if d := L1Diff(got, want); !stats.Converged || d > 1e-11 {
							t.Errorf("%s/%s/aitken=%d: converged %v after %d sweeps, L1 distance to the Jacobi fixed point %g",
								c.name, init.name, aitken, stats.Converged, stats.Iterations, d)
						}
					}
				}
			}
		})
	}
}

// TestScheduledWalkSolvesDAGInTwoSweeps pins what the schedule is for:
// on an operator that is strictly triangular in row order, one
// row-granular Gauss–Seidel sweep lands on the fixed point from any
// start and the second only confirms it.
func TestScheduledWalkSolvesDAGInTwoSweeps(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"random":   benchGraph(t, 5000),
		"powerlaw": benchGraphPowerLaw(t, 5000),
	} {
		tr := NewTransition(g, nil)
		sc := NewSweepSchedule(tr)
		if f := sc.BackEdgeFraction(); f != 0 {
			t.Fatalf("%s: back-edge fraction %g on a strict DAG", name, f)
		}
		teleport := make([]float64, tr.N())
		Uniform(teleport)
		_, stats, err := gsWalk(t, tr, teleport, IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged || stats.Iterations > 2 {
			t.Errorf("%s: %d sweeps (converged %v), want <= 2", name, stats.Iterations, stats.Converged)
		}
	}
	tr := NewTransition(backEdgeGraph(t, 5000, 0.04, false), nil)
	if f := NewSweepSchedule(tr).BackEdgeFraction(); f < 0.03 || f > 0.05 {
		t.Errorf("back-edge fraction %g with 4%% of the citations reversed", f)
	}
}

// TestScheduledWalkDeterministic checks the scheduled walk gives the
// same vector bit for bit in the same number of sweeps on every run, at
// every worker count and under every shard count: the sweep is one
// serial pass, so neither the pool nor a partition can reorder it. (The
// residual is summed by the pool's chunk plan and may differ in the
// last bit between one worker and several.)
func TestScheduledWalkDeterministic(t *testing.T) {
	tr := NewTransition(backEdgeGraph(t, 6000, 0.04, false), nil)
	teleport := make([]float64, tr.N())
	Uniform(teleport)
	opts := IterOptions{AitkenEvery: 4}
	var want []float64
	var wantStats IterStats
	for _, c := range scheduleCases {
		st := c.apply(t, tr)
		for run := 0; run < 2; run++ {
			got, stats, err := DampedWalk(st, 0.85, teleport, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want, wantStats = got, stats
				continue
			}
			if !slices.Equal(got, want) || stats.Iterations != wantStats.Iterations {
				t.Fatalf("%s: run %d differs from %s (L1 %g, %d vs %d sweeps)", c.name, run,
					scheduleCases[0].name, L1Diff(got, want), stats.Iterations, wantStats.Iterations)
			}
		}
	}
}

// TestScheduledSweepsUnderRace drives both sweep kernels and the
// parallel passes around them — the renormalising ScaleDiffStep, the
// dangling scans — on one worker more than the host has CPUs. Its value
// is under the race detector (make test-race).
func TestScheduledSweepsUnderRace(t *testing.T) {
	pool := NewPool(runtime.NumCPU() + 1)
	tr := NewTransition(backEdgeGraph(t, 60_000, 0.04, false), pool)
	st, err := tr.WithSchedule(NewSweepSchedule(tr))
	if err != nil {
		t.Fatal(err)
	}
	n := tr.N()
	teleport := make([]float64, n)
	Uniform(teleport)
	x, stats, err := DampedWalk(st, 0.85, teleport, IterOptions{})
	if err != nil || !stats.Converged {
		t.Fatalf("damped walk: converged %v, err %v", stats.Converged, err)
	}
	dst := make([]float64, n)
	for i := 0; i < 3; i++ {
		sum, _ := st.BlendStep(dst, x, teleport, nil, nil, 0.8, 0, 0, 0.2, tr.DanglingMass(x), 0, 0)
		st.ScaleDiffStep(dst, x, 1/sum)
		x, dst = dst, x
	}
	if d := math.Abs(Sum(x) - 1); d > 1e-12 {
		t.Errorf("blend sweeps left mass %g off unit", d)
	}
}

// legacyFlatWalk is the flat damped walk as it stood before the walk
// learned schedules: a scalar dangling pipeline over DampedStep, and
// for the plain case the original fixed-point loop.
func legacyFlatWalk(tr *Transition, damping float64, teleport, init []float64, opts IterOptions) ([]float64, IterStats) {
	dm := tr.DanglingMass(init)
	step := func(dst, src []float64) float64 {
		res, _, dmNext := tr.DampedStep(dst, src, teleport, damping, dm)
		dm = dmNext
		return res
	}
	if opts.AitkenEvery > 0 {
		x, st, _ := FixedPointExtrapolated(init, step, func(x []float64) { dm = tr.DanglingMass(x) }, opts)
		return x, st
	}
	opts, _ = opts.withDefaults()
	cur, next := Clone(init), make([]float64, len(init))
	var st IterStats
	for st.Iterations < opts.MaxIter {
		st.Iterations++
		st.Residual = step(next, cur)
		st.ResidualTrace = append(st.ResidualTrace, st.Residual)
		cur, next = next, cur
		if st.Residual < opts.Tol {
			st.Converged = true
			break
		}
	}
	return cur, st
}

// TestUnscheduledWalkIsFlatWalk pins the Jacobi walk every test
// compares against: the walk over an operator with no schedule is the
// legacy flat walk bit for bit — vector, iteration count and residual
// trace — cold, warm and with Aitken extrapolation.
func TestUnscheduledWalkIsFlatWalk(t *testing.T) {
	tr := NewTransition(benchGraphPowerLaw(t, 5000), nil)
	n := tr.N()
	teleport := make([]float64, n)
	Uniform(teleport)
	warm, _ := legacyFlatWalk(tr, 0.85, teleport, teleport, IterOptions{Tol: 1e-4})
	for _, tc := range []struct {
		name string
		init []float64
		opts IterOptions
	}{
		{"cold", teleport, IterOptions{Trace: true}},
		{"warm", warm, IterOptions{Trace: true}},
		{"aitken", teleport, IterOptions{Trace: true, AitkenEvery: 4}},
		{"aitken-warm", warm, IterOptions{Trace: true, AitkenEvery: 4}},
	} {
		want, wantStats := legacyFlatWalk(tr, 0.85, teleport, tc.init, tc.opts)
		got, stats, err := DampedWalkFrom(tr, 0.85, teleport, tc.init, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Iterations != wantStats.Iterations || stats.Converged != wantStats.Converged || stats.Exchanges != 0 {
			t.Errorf("%s: %d iterations (converged %v, %d exchanges), legacy %d (%v)", tc.name,
				stats.Iterations, stats.Converged, stats.Exchanges, wantStats.Iterations, wantStats.Converged)
		}
		if !slices.Equal(stats.ResidualTrace, wantStats.ResidualTrace) {
			t.Errorf("%s: residual trace differs from the legacy walk", tc.name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: fixed point differs from the legacy walk (L1 %g)", tc.name, L1Diff(got, want))
		}
	}
}

// TestShardedWalkMatchesUnsharded drives the sharded schedule to a
// tight tolerance and checks the fixed point against the flat walk.
func TestShardedWalkMatchesUnsharded(t *testing.T) {
	for _, build := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", benchGraph(t, 3000)},
		{"powerlaw", benchGraphPowerLaw(t, 3000)},
	} {
		t.Run(build.name, func(t *testing.T) {
			tr := NewTransition(build.g, nil)
			n := tr.N()
			teleport := make([]float64, n)
			Uniform(teleport)
			opts := IterOptions{Tol: 1e-13, MaxIter: 500}
			want, wantStats, err := DampedWalk(tr, 0.85, teleport, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !wantStats.Converged {
				t.Fatal("unsharded walk did not converge")
			}
			for _, k := range []int{2, 4, 8} {
				got, stats, err := DampedWalk(scheduled(t, tr, evenBounds(n, k)), 0.85, teleport, opts)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if !stats.Converged {
					t.Fatalf("k=%d: did not converge", k)
				}
				if d := L1Diff(got, want); d > 1e-11 {
					t.Errorf("k=%d: L1 distance to unsharded fixed point %g", k, d)
				}
				if wantEx := stats.Iterations * k; stats.Exchanges != wantEx {
					t.Errorf("k=%d: %d exchanges over %d iterations, want %d", k, stats.Exchanges, stats.Iterations, wantEx)
				}
				if stats.Iterations >= wantStats.Iterations+5 {
					t.Errorf("k=%d took %d iterations, unsharded %d — Gauss–Seidel should not be slower",
						k, stats.Iterations, wantStats.Iterations)
				}
			}
		})
	}
}

// TestShardedWalkAitken checks extrapolation composes with the
// sharded schedule: same fixed point, reseed keeps the dangling
// pipeline consistent.
func TestShardedWalkAitken(t *testing.T) {
	g := benchGraphPowerLaw(t, 3000)
	tr := NewTransition(g, nil)
	n := tr.N()
	teleport := make([]float64, n)
	Uniform(teleport)
	opts := IterOptions{Tol: 1e-12, MaxIter: 500}
	want, _, err := DampedWalk(tr, 0.85, teleport, opts)
	if err != nil {
		t.Fatal(err)
	}
	aOpts := opts
	aOpts.AitkenEvery = 4
	got, stats, err := DampedWalk(scheduled(t, tr, evenBounds(n, 4)), 0.85, teleport, aOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("extrapolated sharded walk did not converge")
	}
	if d := L1Diff(got, want); d > 1e-10 {
		t.Fatalf("extrapolated sharded fixed point differs by %g", d)
	}
}

// TestShardedSolveSharesWorkerPool is the regression test for the
// worker-pool contract: a sharded solve must run every shard on the
// one pool of the operator — pool occupancy grows, and no kernel
// spawns shard-private pools (the sweep count is attributed to the
// shared pool).
func TestShardedSolveSharesWorkerPool(t *testing.T) {
	g := benchGraphPowerLaw(t, 20000)
	pool := NewPool(2)
	tr := NewTransition(g, pool)
	sc, err := NewShardSchedule(tr, evenBounds(tr.N(), 4))
	if err != nil {
		t.Fatal(err)
	}
	walk := func(tr *Transition) {
		t.Helper()
		st, err := tr.WithSchedule(sc)
		if err != nil {
			t.Fatal(err)
		}
		teleport := make([]float64, tr.N())
		Uniform(teleport)
		if _, _, err := DampedWalk(st, 0.85, teleport, IterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	before := pool.Stats()
	walk(tr)
	after := pool.Stats()
	if w := min(2, runtime.GOMAXPROCS(0)); after.Workers != w {
		t.Fatalf("pool workers %d, want %d", after.Workers, w)
	}
	if after.Runs <= before.Runs {
		t.Fatalf("sharded solve did not run on the shared pool (runs %d -> %d)", before.Runs, after.Runs)
	}
	// A pool-bound view runs on its own pool and leaves the operator's
	// alone (the engine binds a fresh handle to a view per solve; the
	// operator itself is shared and never mutated).
	walk(tr.WithPool(nil))
	if got := pool.Stats().Runs; got != after.Runs {
		t.Fatalf("WithPool(nil) view still ran on the operator's pool: runs %d -> %d", after.Runs, got)
	}
	walk(tr)
	if got := pool.Stats().Runs; got <= after.Runs {
		t.Fatalf("WithPool changed the operator it was taken from: runs %d -> %d", after.Runs, got)
	}
}

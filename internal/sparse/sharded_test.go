package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"scholarrank/internal/graph"
	"scholarrank/internal/shard"
)

// benchWorkersFromEnv honours QISA_BENCH_WORKERS for the shard-curve
// benchmark (default 1 so the scaling numbers are comparable across
// machines unless deliberately scaled). The pool it sizes is shared
// across every shard — the QISA_BENCH_WORKERS contract for the
// sharded path.
func benchWorkersFromEnv() int {
	if v := os.Getenv("QISA_BENCH_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

func TestBenchWorkersFromEnv(t *testing.T) {
	t.Setenv("QISA_BENCH_WORKERS", "")
	if got := benchWorkersFromEnv(); got != 1 {
		t.Fatalf("default workers %d, want 1", got)
	}
	t.Setenv("QISA_BENCH_WORKERS", "3")
	if got := benchWorkersFromEnv(); got != 3 {
		t.Fatalf("workers %d, want 3 from QISA_BENCH_WORKERS", got)
	}
	t.Setenv("QISA_BENCH_WORKERS", "banana")
	if got := benchWorkersFromEnv(); got != 1 {
		t.Fatalf("workers %d, want fallback 1 on a bad value", got)
	}
}

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
// per-row split relies on: every row of NewTransition — and of
// Reweighted, which shares the structure — lists its sources in
// ascending order, so the sources above a shard are a suffix.
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
// a copy: building it over a 100k-row power-law operator allocates a
// few words per row, far below one word per edge.
func TestShardScheduleAllocatesPerRow(t *testing.T) {
	tr := NewTransition(benchGraphPowerLaw(t, 100_000), nil)
	bounds := evenBounds(tr.N(), 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc, err := NewShardSchedule(tr, bounds)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	rows, edges := uint64(tr.N()), uint64(len(tr.sources))
	if limit := 16*rows + 1<<16; got > limit {
		t.Errorf("schedule over %d rows allocated %d bytes, want <= %d", rows, got, limit)
	}
	if got >= 8*edges {
		t.Errorf("schedule allocated %d bytes over %d edges — per-edge memory", got, edges)
	}
	runtime.KeepAlive(sc)
}

// TestShardedSweepMatchesDampedStep checks one sweep at every shard
// count: a single shard is the fused flat kernel bit for bit, and
// several shards reproduce a naive block Gauss–Seidel sweep that
// decides per edge (not per split index) which vector a source is read
// from.
func TestShardedSweepMatchesDampedStep(t *testing.T) {
	g := benchGraphPowerLaw(t, 4000)
	tr := NewTransition(g, nil)
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

	for _, k := range []int{1, 2, 4, 8} {
		bounds := evenBounds(n, k)
		st := scheduled(t, tr, bounds)
		dang := make([]float64, k)
		st.SeedDangling(src, dang)
		got := make([]float64, n)
		res := st.DampedSweep(got, src, teleport, damping, dang)

		want := make([]float64, n)
		var wantRes float64
		if k == 1 {
			wantRes, _, _ = tr.DampedStep(want, src, teleport, damping, tr.DanglingMass(src))
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("k=1 row %d: sweep %g vs fused step %g", v, got[v], want[v])
				}
			}
			if res != wantRes {
				t.Fatalf("k=1: residual %g vs %g", res, wantRes)
			}
		} else {
			var sum float64
			for s := k - 1; s >= 0; s-- {
				lo, hi := bounds[s], bounds[s+1]
				var dm float64
				for _, u := range tr.dangling {
					if u >= hi {
						dm += want[u]
					} else {
						dm += src[u]
					}
				}
				for v := int(lo); v < int(hi); v++ {
					var acc float64
					for i := tr.offsets[v]; i < tr.offsets[v+1]; i++ {
						if u := tr.sources[i]; u >= hi {
							acc += want[u] * tr.norm[i]
						} else {
							acc += src[u] * tr.norm[i]
						}
					}
					want[v] = damping*(acc+dm*teleport[v]) + (1-damping)*teleport[v]
					wantRes += math.Abs(want[v] - src[v])
					sum += want[v]
				}
			}
			Scale(want, 1/sum)
			for v := range got {
				if d := math.Abs(got[v] - want[v]); d > 1e-14 {
					t.Fatalf("k=%d row %d: sweep %g vs naive block sweep %g (diff %g)", k, v, got[v], want[v], d)
				}
			}
			if d := math.Abs(res - wantRes); d > 1e-10 {
				t.Fatalf("k=%d: residual %g vs %g", k, res, wantRes)
			}
			if d := math.Abs(Sum(got) - 1); d > 1e-12 {
				t.Fatalf("k=%d: sweep left mass %g off unit", k, d)
			}
		}
		if d := math.Abs(Sum(dang) - tr.DanglingMass(got)); d > 1e-13 {
			t.Fatalf("k=%d: pipelined dangling %g vs scan %g", k, Sum(dang), tr.DanglingMass(got))
		}
	}
}

// legacyFlatWalk is the flat damped walk as it stood before sharding
// became a schedule: a scalar dangling pipeline over DampedStep, and
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

// TestSingleShardScheduleIsFlatWalk pins the collapse: the walk over
// an unscheduled operator, and over a one-shard schedule, is the
// legacy flat walk bit for bit — vector, iteration count and residual
// trace — cold, warm and with Aitken extrapolation.
func TestSingleShardScheduleIsFlatWalk(t *testing.T) {
	g, _ := Reorder(benchGraphPowerLaw(t, 5000))
	tr := NewTransition(g, nil)
	n := tr.N()
	teleport := make([]float64, n)
	Uniform(teleport)
	one := scheduled(t, tr, []int32{0, int32(n)})
	if one.NumShards() != 1 {
		t.Fatalf("one-shard schedule reports %d shards", one.NumShards())
	}
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
		for label, op := range map[string]*Transition{"flat": tr, "one-shard": one} {
			got, stats, err := DampedWalkFrom(op, 0.85, teleport, tc.init, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Iterations != wantStats.Iterations || stats.Converged != wantStats.Converged || stats.Exchanges != 0 {
				t.Errorf("%s/%s: %d iterations (converged %v, %d exchanges), legacy %d (%v)", tc.name, label,
					stats.Iterations, stats.Converged, stats.Exchanges, wantStats.Iterations, wantStats.Converged)
			}
			if !slices.Equal(stats.ResidualTrace, wantStats.ResidualTrace) {
				t.Errorf("%s/%s: residual trace differs from the legacy walk", tc.name, label)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s/%s: fixed point differs from the legacy walk (L1 %g)", tc.name, label, L1Diff(got, want))
			}
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
	defer pool.Close()
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
	if after.Workers != 2 {
		t.Fatalf("pool workers %d, want 2", after.Workers)
	}
	if after.Runs <= before.Runs {
		t.Fatalf("sharded solve did not run on the shared pool (runs %d -> %d)", before.Runs, after.Runs)
	}
	// A pool-bound view runs on its own pool and leaves the operator's
	// alone (the engine resizes pools between solves and binds one view
	// per solve; the operator itself is shared and never mutated).
	walk(tr.WithPool(nil))
	if got := pool.Stats().Runs; got != after.Runs {
		t.Fatalf("WithPool(nil) view still ran on the operator's pool: runs %d -> %d", after.Runs, got)
	}
	walk(tr)
	if got := pool.Stats().Runs; got <= after.Runs {
		t.Fatalf("WithPool changed the operator it was taken from: runs %d -> %d", after.Runs, got)
	}
}

func BenchmarkShardedWalkPowerLaw100k(b *testing.B) {
	size := 100_000
	g := benchGraphPowerLaw(b, size)
	g, _ = Reorder(g)
	pool := NewPool(benchWorkersFromEnv())
	defer pool.Close()
	tr := NewTransition(g, pool)
	teleport := make([]float64, tr.N())
	Uniform(teleport)
	// Plain sweeps at every shard count (no extrapolation), so the
	// curve isolates the exchange schedule's effect. Bounds come from
	// the edge-balanced partitioner — with power-law in-degrees,
	// equal-row shards would pile every edge into the hub shard and
	// collapse the Gauss–Seidel coupling the curve measures.
	opts := IterOptions{}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			plan, err := shard.Partition(g, k)
			if err != nil {
				b.Fatal(err)
			}
			st := scheduled(b, tr, plan.Bounds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, stats, err := DampedWalkFrom(st, 0.85, teleport, teleport, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !stats.Converged {
					b.Fatalf("did not converge in %d iterations", stats.Iterations)
				}
				_ = x
			}
		})
	}
}

package sparse

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"scholarrank/internal/graph"
)

// TestTransitionRowsSourceAscending pins the invariant the Gauss–Seidel
// back-edge count relies on: every row of NewTransition — and of a gap
// view, which shares the structure — lists its sources in ascending
// order, so the sources above a row are a suffix.
func TestTransitionRowsSourceAscending(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"random":   benchGraph(t, 3000),
		"powerlaw": benchGraphPowerLaw(t, 3000),
	} {
		base := NewTransition(g, nil)
		for kind, tr := range map[string]*Transition{
			"new":          base,
			"gap-weighted": gapView(t, base, chronoYears(base.N()), 0.3),
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

// TestGaussSeidelViewAllocatesPerRow checks the Gauss–Seidel operator
// is a view, not a copy: taking it over a 100k-row power-law operator
// allocates the view itself and no per-row or per-edge memory.
func TestGaussSeidelViewAllocatesPerRow(t *testing.T) {
	tr := NewTransition(benchGraphPowerLaw(t, 100_000), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gs := tr.GaussSeidel()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16); got > limit {
		t.Errorf("Gauss–Seidel view over %d rows allocated %d bytes, want <= %d", tr.N(), got, limit)
	}
	if &gs.sources[0] != &tr.sources[0] || &gs.inv[0] != &tr.inv[0] {
		t.Error("Gauss–Seidel view copied the operator")
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

// poolCases are the pool sizes the Gauss–Seidel tests run at. The
// sweep itself never uses the pool; the renormalising pass and the
// dangling scans around it do.
var poolCases = []struct {
	name    string
	workers int
}{{"workers1", 1}, {"workers3", 3}}

// chronoYears is a synthetic year column for an n-row graph in
// chronological id order: 361 distinct years from 1665 to 2025, rising
// with the row.
func chronoYears(n int) []int32 {
	year := make([]int32, n)
	for i := range year {
		year[i] = 1665 + int32(i*360/max(1, n-1))
	}
	return year
}

// gapDecay is the engine's gap weight exp(-rho·gap).
func gapDecay(rho float64) func(gap int) float64 {
	return func(gap int) float64 { return math.Exp(-rho * float64(gap)) }
}

// gapView is tr's gap view with the weight exp(-rho·gap).
func gapView(tb testing.TB, tr *Transition, year []int32, rho float64) *Transition {
	tb.Helper()
	gap, err := tr.GapWeighted(year, gapDecay(rho))
	if err != nil {
		tb.Fatal(err)
	}
	return gap
}

// normAt is the normalised weight w(u,v)/W(u) of row v's in-edge i,
// read edge by edge from the operator's fields: the oracles' view of
// M, which no kernel of the package computes.
func (t *Transition) normAt(v int32, i int64) float64 {
	u := t.sources[i]
	w := 1.0
	switch {
	case t.gap != nil:
		g := int(t.gap.year[u]) - int(t.gap.year[v])
		w = t.gap.lut[t.gap.span+max(0, g)]
	case t.weights != nil:
		w = t.weights[i]
	}
	return w * t.inv[u]
}

// naiveSweep is one Gauss–Seidel damped sweep decided edge by edge: rows run from the top, and a source is read from
// the vector under construction when it lies above the row and from src
// otherwise.
func naiveSweep(tr *Transition, src, teleport []float64, damping float64) (dst []float64, res float64) {
	dst = make([]float64, tr.n)
	tcoef := damping*tr.DanglingMass(src) + 1 - damping
	for v := int32(tr.n) - 1; v >= 0; v-- {
		var acc float64
		for i := tr.offsets[v]; i < tr.offsets[v+1]; i++ {
			if u := tr.sources[i]; u > v {
				acc += dst[u] * tr.normAt(v, i)
			} else {
				acc += src[u] * tr.normAt(v, i)
			}
		}
		dst[v] = damping*acc + tcoef*teleport[v]
	}
	Scale(dst, 1/Sum(dst))
	return dst, L1Diff(dst, src)
}

// TestGaussSeidelSweepMatchesNaiveSweep checks one Gauss–Seidel
// DampedStep at every pool size against the naive edge-by-edge sweep,
// on a graph with back edges and self-loops so that both kinds of
// source occur.
func TestGaussSeidelSweepMatchesNaiveSweep(t *testing.T) {
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

	for _, c := range poolCases {
		st := tr.WithPool(NewPool(c.workers)).GaussSeidel()
		got := make([]float64, n)
		xs := make([]float64, n)
		st.Prescale(xs, src)
		res, _, dang := st.DampedStep(got, src, xs, teleport, damping, tr.DanglingMass(src))
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
// until the L1 change drops below tol. It returns the fixed point and
// the sweeps taken.
func literalJacobi(tr *Transition, damping float64, teleport []float64, tol float64) (x []float64, sweeps int) {
	x, y := Clone(teleport), make([]float64, tr.n)
	for sweeps < 5000 {
		sweeps++
		var dm, res float64
		for _, u := range tr.dangling {
			dm += x[u]
		}
		for v := 0; v < tr.n; v++ {
			var s float64
			for i := tr.offsets[v]; i < tr.offsets[v+1]; i++ {
				s += x[tr.sources[i]] * tr.normAt(int32(v), i)
			}
			y[v] = damping*(s+dm*teleport[v]) + (1-damping)*teleport[v]
			res += math.Abs(y[v] - x[v])
		}
		x, y = y, x
		if res < tol {
			break
		}
	}
	return x, sweeps
}

// TestScheduledWalkMatchesJacobiOracle is the oracle test of the
// Gauss–Seidel sweep: at every pool size, on every graph shape, cold
// and warm, with Aitken extrapolation on and off, the Gauss–Seidel walk
// reaches the fixed point of the literal Jacobi walk, and cold it takes
// no more sweeps than the Jacobi walk does.
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
			want, jacobiSweeps := literalJacobi(tr, 0.85, teleport, 1e-13)
			warm := Clone(want)
			for i := range warm {
				warm[i] *= 1 + 0.1*rng.Float64()
			}
			Normalize1(warm)
			for _, c := range poolCases {
				st := tr.WithPool(NewPool(c.workers)).GaussSeidel()
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
						if init.name == "cold" && aitken == 0 && stats.Iterations > jacobiSweeps {
							t.Errorf("%s/cold: %d Gauss–Seidel sweeps, the Jacobi walk took %d",
								c.name, stats.Iterations, jacobiSweeps)
						}
					}
				}
			}
		})
	}
}

// TestScheduledWalkSolvesDAGInTwoSweeps pins what the Gauss–Seidel
// sweep is for:
// on an operator that is strictly triangular in row order, one
// row-granular Gauss–Seidel sweep lands on the fixed point from any
// start and the second only confirms it.
func TestScheduledWalkSolvesDAGInTwoSweeps(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"random":   benchGraph(t, 5000),
		"powerlaw": benchGraphPowerLaw(t, 5000),
	} {
		tr := NewTransition(g, nil)
		if f := tr.GaussSeidel().BackEdgeFraction(); f != 0 {
			t.Fatalf("%s: back-edge fraction %g on a strict DAG", name, f)
		}
		teleport := make([]float64, tr.N())
		Uniform(teleport)
		_, stats, err := gsWalk(tr, teleport, IterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged || stats.Iterations > 2 {
			t.Errorf("%s: %d sweeps (converged %v), want <= 2", name, stats.Iterations, stats.Converged)
		}
	}
	tr := NewTransition(backEdgeGraph(t, 5000, 0.04, false), nil)
	gs := tr.GaussSeidel()
	if f := gs.BackEdgeFraction(); f < 0.03 || f > 0.05 {
		t.Errorf("back-edge fraction %g with 4%% of the citations reversed", f)
	}
	if f := tr.BackEdgeFraction(); f != 0 {
		t.Errorf("Jacobi operator reports back-edge fraction %g", f)
	}
	// A gap view keeps the sweep and the count: they depend on the row
	// structure only.
	if rw := gapView(t, gs, chronoYears(gs.N()), 0.3); !rw.gaussSeidel || rw.back != gs.back {
		t.Errorf("gap-weighted operator: Gauss–Seidel %v, %d back edges; want true, %d", rw.gaussSeidel, rw.back, gs.back)
	}
}

// TestScheduledWalkDeterministic checks the Gauss–Seidel walk gives the
// same vector bit for bit in the same number of sweeps on every run and
// at every worker count: the sweep is one serial pass, so the pool
// cannot reorder it. (The residual is summed by the pool's chunk plan
// and may differ in the last bit between one worker and several.)
func TestScheduledWalkDeterministic(t *testing.T) {
	tr := NewTransition(backEdgeGraph(t, 6000, 0.04, false), nil)
	teleport := make([]float64, tr.N())
	Uniform(teleport)
	opts := IterOptions{AitkenEvery: 4}
	var want []float64
	var wantStats IterStats
	for _, c := range poolCases {
		st := tr.WithPool(NewPool(c.workers)).GaussSeidel()
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
					poolCases[0].name, L1Diff(got, want), stats.Iterations, wantStats.Iterations)
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
	st := tr.GaussSeidel()
	n := tr.N()
	teleport := make([]float64, n)
	Uniform(teleport)
	x, stats, err := DampedWalk(st, 0.85, teleport, IterOptions{})
	if err != nil || !stats.Converged {
		t.Fatalf("damped walk: converged %v, err %v", stats.Converged, err)
	}
	dst, xs := make([]float64, n), make([]float64, n)
	st.Prescale(xs, x)
	for i := 0; i < 3; i++ {
		sum, _ := st.BlendStep(dst, x, xs, teleport, nil, nil, 0.8, 0, 0, 0.2, tr.DanglingMass(x), 0, 0)
		st.ScaleDiffStep(dst, x, xs, 1/sum)
		x, dst = dst, x
	}
	if d := math.Abs(Sum(x) - 1); d > 1e-12 {
		t.Errorf("blend sweeps left mass %g off unit", d)
	}
}

// legacyFlatWalk is the flat damped walk as it stood before the walk
// learned the Gauss–Seidel sweep: a scalar dangling pipeline over DampedStep, and
// for the plain case the original fixed-point loop.
func legacyFlatWalk(tr *Transition, damping float64, teleport, init []float64, opts IterOptions) ([]float64, IterStats) {
	dm := tr.DanglingMass(init)
	xs := make([]float64, len(init))
	tr.Prescale(xs, init)
	step := func(dst, src []float64) float64 {
		res, _, dmNext := tr.DampedStep(dst, src, xs, teleport, damping, dm)
		dm = dmNext
		return res
	}
	if opts.AitkenEvery > 0 {
		x, st, _ := FixedPointExtrapolated(context.Background(), nil, init, step, func(x []float64) {
			dm = tr.DanglingMass(x)
			tr.Prescale(xs, x)
		}, opts)
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
// compares against: the walk over a NewTransition operator is the
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
		if stats.Iterations != wantStats.Iterations || stats.Converged != wantStats.Converged {
			t.Errorf("%s: %d iterations (converged %v), legacy %d (%v)", tc.name,
				stats.Iterations, stats.Converged, wantStats.Iterations, wantStats.Converged)
		}
		if !slices.Equal(stats.ResidualTrace, wantStats.ResidualTrace) {
			t.Errorf("%s: residual trace differs from the legacy walk", tc.name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: fixed point differs from the legacy walk (L1 %g)", tc.name, L1Diff(got, want))
		}
	}
}

// TestShardedWalkMatchesUnsharded drives the Gauss–Seidel walk to a
// tight tolerance at every pool size and checks the fixed point against
// the flat (Jacobi) walk over the same operator.
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
			teleport := make([]float64, tr.N())
			Uniform(teleport)
			opts := IterOptions{Tol: 1e-13, MaxIter: 500}
			want, wantStats, err := DampedWalk(tr, 0.85, teleport, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !wantStats.Converged {
				t.Fatal("flat walk did not converge")
			}
			for _, c := range poolCases {
				got, stats, err := DampedWalk(tr.WithPool(NewPool(c.workers)).GaussSeidel(), 0.85, teleport, opts)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if !stats.Converged {
					t.Fatalf("%s: did not converge", c.name)
				}
				if d := L1Diff(got, want); d > 1e-11 {
					t.Errorf("%s: L1 distance to the flat fixed point %g", c.name, d)
				}
				if stats.Exchanges != 0 {
					t.Errorf("%s: %d boundary exchanges recorded by the driver, want 0", c.name, stats.Exchanges)
				}
				if stats.Iterations >= wantStats.Iterations+5 {
					t.Errorf("%s took %d iterations, flat walk %d — Gauss–Seidel should not be slower",
						c.name, stats.Iterations, wantStats.Iterations)
				}
			}
		})
	}
}

// TestShardedWalkAitken checks extrapolation composes with the
// Gauss–Seidel sweep: same fixed point as the flat walk, and the reseed
// keeps the dangling pipeline consistent.
func TestShardedWalkAitken(t *testing.T) {
	tr := NewTransition(benchGraphPowerLaw(t, 3000), nil)
	teleport := make([]float64, tr.N())
	Uniform(teleport)
	opts := IterOptions{Tol: 1e-12, MaxIter: 500}
	want, _, err := DampedWalk(tr, 0.85, teleport, opts)
	if err != nil {
		t.Fatal(err)
	}
	aOpts := opts
	aOpts.AitkenEvery = 4
	got, stats, err := DampedWalk(tr.GaussSeidel(), 0.85, teleport, aOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("extrapolated Gauss–Seidel walk did not converge")
	}
	if d := L1Diff(got, want); d > 1e-10 {
		t.Fatalf("extrapolated Gauss–Seidel fixed point differs by %g", d)
	}
}

// TestGaussSeidelWalkSharesWorkerPool is the regression test for the
// worker-pool contract: the pooled passes around the serial
// Gauss–Seidel sweep run on the one pool of the operator — pool
// occupancy grows, and no kernel spawns a private pool.
func TestGaussSeidelWalkSharesWorkerPool(t *testing.T) {
	g := benchGraphPowerLaw(t, 20000)
	pool := NewPool(2)
	tr := NewTransition(g, pool)
	walk := func(tr *Transition) {
		t.Helper()
		teleport := make([]float64, tr.N())
		Uniform(teleport)
		if _, _, err := DampedWalk(tr.GaussSeidel(), 0.85, teleport, IterOptions{}); err != nil {
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
		t.Fatalf("Gauss–Seidel walk did not run on the operator's pool (runs %d -> %d)", before.Runs, after.Runs)
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

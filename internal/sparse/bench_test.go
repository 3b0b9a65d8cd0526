package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"scholarrank/internal/graph"
)

// benchGraph builds a citation-shaped random graph: each node cites
// ~12 earlier nodes chosen uniformly, giving a mildly skewed
// in-degree distribution.
func benchGraph(tb testing.TB, n int) *graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	gb := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		for r := 0; r < 12; r++ {
			_ = gb.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
		}
	}
	return gb.Build()
}

// benchGraphPowerLaw builds a preferential-attachment citation graph:
// each node cites 12 earlier nodes picked proportionally to their
// current in-degree (plus one), producing the heavy-tailed in-degree
// typical of real citation networks — the worst case for row-count
// partitioning and the case the edge-balanced chunk plan exists for.
func benchGraphPowerLaw(tb testing.TB, n int) *graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(2))
	gb := graph.NewBuilder(n)
	// targets holds one entry per (in-edge + node), so sampling a
	// uniform element approximates degree-proportional selection.
	targets := make([]int32, 0, 13*n)
	targets = append(targets, 0)
	for i := 1; i < n; i++ {
		for r := 0; r < 12; r++ {
			v := targets[rng.Intn(len(targets))]
			_ = gb.AddEdge(graph.NodeID(i), graph.NodeID(v))
			targets = append(targets, v)
		}
		targets = append(targets, int32(i))
	}
	return gb.Build()
}

func benchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if ncpu := runtime.NumCPU(); ncpu != 1 && ncpu != 2 && ncpu != 4 {
		counts = append(counts, ncpu)
	}
	return counts
}

func BenchmarkNewTransition(b *testing.B) {
	g := benchGraph(b, 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewTransition(g, nil)
	}
}

// BenchmarkGapWeighted builds the gap view of a 50k-row operator: one
// pass over the edges for the inverse out-weight, nothing per edge
// allocated.
func BenchmarkGapWeighted(b *testing.B) {
	g := benchGraph(b, 50_000)
	t := NewTransition(g, nil)
	year := chronoYears(t.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.GapWeighted(year, gapDecay(0.1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulVec(b *testing.B) {
	g := benchGraph(b, 50_000)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := NewPool(w)
			t := NewTransition(g, pool)
			x := make([]float64, t.N())
			Uniform(x)
			dst := make([]float64, t.N())
			b.SetBytes(int64(g.NumEdges() * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.MulVec(dst, x)
			}
		})
	}
}

// unfusedDampedStep is the seed kernel's iteration body: four
// separate passes (mat-vec, dangling mass, teleport combine, L1
// residual). It exists so `go test -bench DampedStep` reproduces the
// fused-vs-unfused comparison on any machine.
func unfusedDampedStep(t *Transition, dst, src, teleport []float64, damping float64) (res float64) {
	t.MulVec(dst, src)
	dm := t.DanglingMass(src)
	for i := range dst {
		dst[i] = damping*(dst[i]+dm*teleport[i]) + (1-damping)*teleport[i]
	}
	return L1Diff(dst, src)
}

func benchDampedStep(b *testing.B, build func(testing.TB, int) *graph.Graph, fused bool) {
	g := build(b, 50_000)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := NewPool(w)
			t := NewTransition(g, pool)
			src := make([]float64, t.N())
			Uniform(src)
			teleport := make([]float64, t.N())
			Uniform(teleport)
			dst := make([]float64, t.N())
			xs := make([]float64, t.N())
			t.Prescale(xs, src)
			dm := t.DanglingMass(src)
			b.SetBytes(int64(g.NumEdges() * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fused {
					_, _, _ = t.DampedStep(dst, src, xs, teleport, 0.85, dm)
				} else {
					_ = unfusedDampedStep(t, dst, src, teleport, 0.85)
				}
			}
		})
	}
}

func BenchmarkDampedStepFused(b *testing.B) {
	b.Run("uniform", func(b *testing.B) { benchDampedStep(b, benchGraph, true) })
	b.Run("powerlaw", func(b *testing.B) { benchDampedStep(b, benchGraphPowerLaw, true) })
}

func BenchmarkDampedStepUnfused(b *testing.B) {
	b.Run("uniform", func(b *testing.B) { benchDampedStep(b, benchGraph, false) })
	b.Run("powerlaw", func(b *testing.B) { benchDampedStep(b, benchGraphPowerLaw, false) })
}

func BenchmarkDampedWalk(b *testing.B) {
	g := benchGraph(b, 50_000)
	t := NewTransition(g, nil)
	teleport := make([]float64, t.N())
	Uniform(teleport)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DampedWalk(t, 0.85, teleport, IterOptions{Tol: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDampedWalkPowerLaw is the full damped-walk solve on an n-node
// preferential-attachment graph in chronological id order: the Jacobi
// walk plain and with Aitken Δ² extrapolation, and the Gauss–Seidel
// walk (EXPERIMENTS.md §E2).
func benchDampedWalkPowerLaw(b *testing.B, n int) {
	g := benchGraphPowerLaw(b, n)
	run := func(gaussSeidel bool, opts IterOptions) func(*testing.B) {
		return func(b *testing.B) {
			t := NewTransition(g, nil)
			if gaussSeidel {
				t = t.GaussSeidel()
			}
			teleport := make([]float64, t.N())
			Uniform(teleport)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := DampedWalk(t, 0.85, teleport, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("jacobi", run(false, IterOptions{Tol: 1e-9}))
	b.Run("jacobi-aitken", run(false, IterOptions{Tol: 1e-9, AitkenEvery: 4}))
	b.Run("gauss-seidel", run(true, IterOptions{Tol: 1e-9}))
}

func BenchmarkDampedWalkPowerLaw20k(b *testing.B)  { benchDampedWalkPowerLaw(b, 20_000) }
func BenchmarkDampedWalkPowerLaw100k(b *testing.B) { benchDampedWalkPowerLaw(b, 100_000) }

func BenchmarkL1Diff(b *testing.B) {
	x := make([]float64, 100_000)
	y := make([]float64, 100_000)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) + 0.5
	}
	b.SetBytes(int64(len(x) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = L1Diff(x, y)
	}
}

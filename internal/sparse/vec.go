// Package sparse provides the numeric kernels shared by every
// ranking algorithm in this repository: dense vector helpers, a
// row-stochastic transition operator built from a directed graph, and
// generic fixed-point drivers with convergence tracing.
//
// # Parallelism model
//
// All parallel kernels draw their workers from one process-wide set
// of helper goroutines, started on first use and parked on a channel
// between calls; a Pool is a handle that caps how many of them one
// Run engages and counts its own runs. Solvers therefore pay
// goroutine-creation cost once per process rather than once per
// iteration, and a handle has no lifetime to end. The typical shape
// is:
//
//	pool := sparse.NewPool(workers) // workers < 1 → NumCPU
//	t := sparse.NewTransition(g, pool)
//	scores, stats, err := sparse.DampedWalk(t, 0.85, teleport, opts)
//
// A nil *Pool is valid everywhere and selects serial execution, as
// does a pool with a single worker. Work is divided according to an
// edge-balanced chunk plan computed once per Transition (EdgeChunks):
// chunk boundaries are found by binary search over the CSR offsets so
// each chunk carries a near-equal edge count, which keeps the
// heavy-tailed in-degree of citation graphs from serialising a sweep
// on its hottest chunk. Operators too small to benefit get a
// single-chunk plan and run inline.
//
// # Fused iteration steps
//
// The per-iteration cost of the damped-walk solvers is dominated by
// memory traffic, so the hot steps are fused: DampedStep performs the
// mat-vec, dangling-mass redistribution, teleport blend, L1 residual
// and mass sum in a single sweep (with per-chunk partials combined by
// a deterministic tree reduction), and BlendStep/ScaleDiffStep do the
// same for the heterogeneous walk. Dangling mass is pipelined — each
// step returns the dangling mass of the vector it produced for the
// next step to consume — so no solver pass ever re-scans the dangling
// set mid-iteration. So is the source vector the sweeps gather from,
// pre-scaled by each node's inverse out-weight: every step leaves the
// pre-scaled copy of the vector it produced for the next, and no
// operator stores a weight per edge.
package sparse

import "math"

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Uniform fills x with 1/len(x), the uniform probability vector.
// It is a no-op on an empty slice.
func Uniform(x []float64) {
	if len(x) == 0 {
		return
	}
	Fill(x, 1/float64(len(x)))
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// L1Diff returns the L1 distance ||a - b||_1. The slices must have
// equal length.
func L1Diff(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// MaxDiff returns the L∞ distance max_i |a_i - b_i|.
func MaxDiff(a, b []float64) float64 {
	var s float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > s {
			s = d
		}
	}
	return s
}

// Normalize1 scales x in place so that its elements sum to 1 and
// returns the original sum. If the sum is zero or not finite, x is
// left unchanged and the sum is returned.
func Normalize1(x []float64) float64 {
	s := Sum(x)
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return s
	}
	inv := 1 / s
	for i := range x {
		x[i] *= inv
	}
	return s
}

// MinMaxScale rescales x in place to [0, 1]. A constant vector maps
// to all zeros.
func MinMaxScale(x []float64) {
	if len(x) == 0 {
		return
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		Fill(x, 0)
		return
	}
	inv := 1 / (hi - lo)
	for i := range x {
		x[i] = (x[i] - lo) * inv
	}
}

// Scale multiplies x in place by c.
func Scale(x []float64, c float64) {
	for i := range x {
		x[i] *= c
	}
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Resized returns a length-n copy of x, truncated or zero-padded as
// needed. It is the warm-start adapter for growing systems: a score
// vector solved on an m-article corpus extends to an n-article corpus
// (n > m) with the new tail at zero, which a fixed-point solver then
// fills in from a near-converged starting point.
func Resized(x []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, x)
	return out
}

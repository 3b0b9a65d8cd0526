package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// Default iteration parameters shared by all fixed-point solvers in
// this repository.
const (
	DefaultTol     = 1e-9
	DefaultMaxIter = 200
)

// ErrBadOptions reports invalid iteration options.
var ErrBadOptions = errors.New("sparse: invalid iteration options")

// IterOptions controls a fixed-point iteration.
type IterOptions struct {
	// Tol is the L1 convergence threshold. Zero selects DefaultTol.
	Tol float64
	// MaxIter bounds the number of iterations. Zero selects
	// DefaultMaxIter.
	MaxIter int
	// Trace, when true, records the residual after every iteration in
	// IterStats.ResidualTrace.
	Trace bool
	// OnIteration, when set, is called synchronously after every
	// iteration with that iteration's residual and wall time — the
	// live-observability hook behind core.Options.Trace. It runs on
	// the solver goroutine; keep it cheap.
	OnIteration func(IterEvent)
	// AitkenEvery, when positive, enables guarded Aitken Δ² vector
	// extrapolation every AitkenEvery iterations in FixedPointExtrapolated
	// and the walks built on it (DampedWalk/DampedWalkFrom). FixedPoint
	// and FixedPointResidual ignore the field. See FixedPointExtrapolated
	// for the guard condition.
	AitkenEvery int
}

// IterEvent describes one completed fixed-point iteration.
type IterEvent struct {
	// Iteration is 1-based.
	Iteration int
	// Residual is the L1 change this iteration produced.
	Residual float64
	// Elapsed is the wall time of this single iteration.
	Elapsed time.Duration
}

func (o IterOptions) withDefaults() (IterOptions, error) {
	if o.Tol == 0 {
		o.Tol = DefaultTol
	}
	if o.MaxIter == 0 {
		o.MaxIter = DefaultMaxIter
	}
	if o.Tol < 0 || o.MaxIter < 0 || o.AitkenEvery < 0 {
		return o, fmt.Errorf("%w: tol=%v maxIter=%d aitkenEvery=%d",
			ErrBadOptions, o.Tol, o.MaxIter, o.AitkenEvery)
	}
	return o, nil
}

// IterStats reports how a fixed-point iteration behaved.
type IterStats struct {
	Iterations    int
	Residual      float64 // final L1 residual
	Converged     bool
	Elapsed       time.Duration // wall time of the whole iteration loop
	ResidualTrace []float64     // per-iteration residuals when Trace was set

	// Extrapolations counts accepted Aitken Δ² steps (zero unless
	// AitkenEvery was set and the driver supports it).
	Extrapolations int
	// IterationsSaved estimates the plain power-iteration sweeps the
	// accepted extrapolations avoided, from the observed contraction
	// rate, net of the sweeps wasted on rejected trials. It is an
	// estimate for observability, not an exact count.
	IterationsSaved int
	// Exchanges counts boundary-mass exchanges. No driver of this
	// package sets it; a caller that labels a solve with a row
	// partition records them here.
	Exchanges int
}

// StepFunc computes one fixed-point step: given the current vector
// src, it must fill dst with the next vector. dst and src never alias.
type StepFunc func(dst, src []float64)

// ResidualStepFunc is a fixed-point step that also reports the L1
// residual ||dst - src||₁ of the transition it just performed. Fused
// kernels (DampedStep, BlendStep + ScaleDiffStep) produce the
// residual as a by-product of the sweep that writes dst, which lets
// FixedPointResidual skip the separate L1Diff pass over both vectors
// that FixedPoint pays every iteration.
type ResidualStepFunc func(dst, src []float64) float64

// DampedWalk computes the stationary distribution of the damped
// random walk defined by the transition operator t:
//
//	x' = d·(Mᵀx + danglingMass(x)·v) + (1-d)·v
//
// where v is the teleport distribution (the caller must pass a
// probability vector of length t.N()). It is the shared engine behind
// every PageRank-family computation in this repository.
func DampedWalk(t *Transition, damping float64, teleport []float64, opts IterOptions) ([]float64, IterStats, error) {
	return DampedWalkFrom(t, damping, teleport, teleport, opts)
}

// DampedWalkFrom is DampedWalk with an explicit starting vector. The
// fixed point does not depend on init, but starting from a nearby
// solution (a previous parameterisation's result) cuts the iteration
// count — the warm-start path used by parameter sweeps.
//
// Each iteration is a single fused sweep (DampedStep): the mat-vec,
// dangling redistribution, teleport blend and convergence residual
// all happen in one pass over the operator, and the dangling mass and
// the pre-scaled copy (WalkScratch.scaled) of the produced vector are
// carried into the next iteration instead of being recomputed. A
// Gauss–Seidel operator (Transition.GaussSeidel) reaches the same
// fixed point in far fewer sweeps in chronological order.
func DampedWalkFrom(t *Transition, damping float64, teleport, init []float64, opts IterOptions) ([]float64, IterStats, error) {
	ws := new(WalkScratch)
	xs := sized(&ws.scaled, t.n)
	// The extrapolated driver restarts the iteration from vectors the
	// step never produced, so the pipelined dangling mass and
	// pre-scaled source must be recomputed whenever the source vector
	// changes under them.
	var dang float64
	reseed := func(x []float64) {
		dang = t.DanglingMass(x)
		t.Prescale(xs, x)
	}
	reseed(init)
	step := func(dst, src []float64) (res float64) {
		res, _, dang = t.DampedStep(dst, src, xs, teleport, damping, dang)
		return res
	}
	return FixedPointExtrapolated(context.Background(), ws, init, step, reseed, opts)
}

// FixedPoint iterates x ← step(x) from the given initial vector until
// the L1 change drops below Tol or MaxIter is reached. It returns the
// final vector (a fresh slice; init is not modified). Steps that can
// produce their own residual should use FixedPointResidual and save a
// pass per iteration.
func FixedPoint(init []float64, step StepFunc, opts IterOptions) ([]float64, IterStats, error) {
	return FixedPointResidual(init, func(dst, src []float64) float64 {
		step(dst, src)
		return L1Diff(dst, src)
	}, opts)
}

// FixedPointResidual iterates x ← step(x) until the residual reported
// by the step drops below Tol or MaxIter is reached.
// It is the fused counterpart of FixedPoint: the driver itself never
// touches the vectors, so a step backed by the fused kernels makes the
// whole iteration a single sweep. It is FixedPointExtrapolated with
// extrapolation off — AitkenEvery is ignored here.
func FixedPointResidual(init []float64, step ResidualStepFunc, opts IterOptions) ([]float64, IterStats, error) {
	opts, err := opts.withDefaults() // a negative AitkenEvery is still rejected
	if err != nil {
		return nil, IterStats{}, err
	}
	opts.AitkenEvery = 0
	return FixedPointExtrapolated(context.Background(), nil, init, step, nil, opts)
}

// WalkScratch is the working set of one run of the fixed-point driver:
// the iterate pair, the Aitken history ring and the extrapolant, plus
// the pre-scaled source a sweep gathers from (a transpose-pair walk
// pipelines two, SeedWalk; a damped walk one, DampedWalkFrom). A
// caller that runs many walks of one dimension recycles one scratch
// per concurrent walk instead of allocating the set each time. The
// zero value is ready: each vector is allocated the first time a run
// needs it and reused after that, and nothing a run reads depends on
// what a previous run left behind. The vector a run returns lives in
// the scratch, so it is valid only until the scratch serves its next
// run.
type WalkScratch struct {
	cur, next, h0, h1, h2, y []float64
	scaled, scaledNext       []float64
}

// sized returns *v resized to length n, allocating only when its
// capacity is short.
func sized(v *[]float64, n int) []float64 {
	if cap(*v) < n {
		*v = make([]float64, n)
	}
	*v = (*v)[:n]
	return *v
}

// aitkenStep writes the vector Aitken Δ² extrapolation of the four
// consecutive iterates x0, x1 = step(x0), x2 = step(x1), x3 = step(x2)
// into dst. It is the minimal-residual (least-squares) form of Δ²:
// where scalar Aitken divides the squared first difference by the
// second difference component-wise, the vector form picks the affine
// combination of the three most recent step results whose combined
// update Δ-vector
//
//	a·(x1-x0) + b·(x2-x1) + (1-a-b)·(x3-x2)
//
// has minimal L2 norm — for a linear fixed-point map this cancels the
// two dominant error modes at once (scalar Δ² is the special case of
// a single mode), and it has no per-component denominators to divide
// noise by noise. The extrapolant is dst = a·x1 + b·x2 + (1-a-b)·x3.
// Negative components are clamped to zero so dst stays a valid
// (unnormalised) probability vector. It reports false when the normal
// equations are singular (the updates are already linearly dependent,
// e.g. at convergence), in which case dst is untouched.
func aitkenStep(dst, x0, x1, x2, x3 []float64) bool {
	var uu, uv, vv, uw, vw float64
	for i := range dst {
		f1 := x1[i] - x0[i]
		f2 := x2[i] - x1[i]
		f3 := x3[i] - x2[i]
		u := f1 - f3
		v := f2 - f3
		uu += u * u
		uv += u * v
		vv += v * v
		uw -= u * f3
		vw -= v * f3
	}
	det := uu*vv - uv*uv
	if det == 0 || math.IsNaN(det) || math.IsInf(det, 0) {
		return false
	}
	a := (uw*vv - vw*uv) / det
	b := (vw*uu - uw*uv) / det
	c := 1 - a - b
	for i := range dst {
		y := a*x1[i] + b*x2[i] + c*x3[i]
		if y < 0 || math.IsNaN(y) {
			y = 0
		}
		dst[i] = y
	}
	return true
}

// FixedPointExtrapolated is the one fixed-point loop of this package:
// plain iteration when AitkenEvery is 0 (FixedPointResidual), with
// guarded vector Aitken Δ² extrapolation layered on top when it is
// positive. Every AitkenEvery sweeps (once four consecutive iterates
// are available) it forms the minimal-residual Δ² extrapolant y (see
// aitkenStep), renormalises it, and takes one trial step from y. The
// trial is accepted only if its residual is strictly below the last
// plain residual — the guard that makes the driver safe: an accepted
// trial continues the iteration from a vector whose distance to the
// fixed point is provably smaller (the residual bounds it), and a
// rejected trial is discarded, so the sequence can never diverge past
// plain power iteration. The cost of a rejection is the one wasted
// sweep, bounded overall by 1/AitkenEvery of the total work.
//
// reseed, when non-nil, is called with the source vector before every
// step the driver takes from a vector the step function did not itself
// produce (the extrapolant on a trial, the retained iterate after a
// rejection). Steps that pipeline state across iterations — DampedStep
// carrying the dangling mass and the pre-scaled copy of the vector it
// produced — use it to re-prime that state.
//
// Iterations in the returned stats counts every sweep taken, including
// rejected trials, so wall-clock comparisons against the plain driver
// stay honest; the trace likewise records every sweep's residual (a
// rejected trial can appear as a non-monotone entry). Extrapolation
// keeps three history vectors plus the extrapolant — 4n floats beyond
// the plain iteration's working set.
//
// The vectors come from ws; a nil ws runs on a fresh scratch, so the
// returned vector is then a new slice. init is copied before the first
// sweep and never written. ctx is checked once per sweep: once it is
// done the driver stops, returning a nil vector, the stats of the
// sweeps it ran and an error wrapping ctx.Err().
func FixedPointExtrapolated(ctx context.Context, ws *WalkScratch, init []float64, step ResidualStepFunc, reseed func([]float64), opts IterOptions) ([]float64, IterStats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, IterStats{}, err
	}
	if ws == nil {
		ws = new(WalkScratch)
	}
	n := len(init)
	cur := sized(&ws.cur, n)
	copy(cur, init)
	next := sized(&ws.next, n)
	aitken := opts.AitkenEvery > 0
	// Ring of the three iterates preceding cur: after the history
	// shift at the top of the loop, h2 = x_{k-1}, h1 = x_{k-2},
	// h0 = x_{k-3} while cur advances to x_k.
	var h0, h1, h2, y []float64
	if aitken {
		h0 = sized(&ws.h0, n)
		h1 = sized(&ws.h1, n)
		h2 = sized(&ws.h2, n)
		y = sized(&ws.y, n)
	}
	histFill := 0
	sinceTrial := 0
	var st IterStats
	lambda := math.NaN()       // estimated contraction rate r_k / r_{k-1}
	prevPlainRes := math.NaN() // residual of the previous plain step
	savedEst := 0.0
	start := time.Now()
	iterStart := start
	sweeps := 0
	record := func(res float64) {
		sweeps++
		if opts.Trace {
			st.ResidualTrace = append(st.ResidualTrace, res)
		}
		if opts.OnIteration != nil {
			now := time.Now()
			opts.OnIteration(IterEvent{Iteration: sweeps, Residual: res, Elapsed: now.Sub(iterStart)})
			iterStart = now
		}
	}
	for sweeps < opts.MaxIter {
		if err := ctx.Err(); err != nil {
			st.Iterations = sweeps
			st.Elapsed = time.Since(start)
			return nil, st, fmt.Errorf("sparse: fixed point stopped after %d sweeps: %w", sweeps, err)
		}
		if aitken {
			h0, h1, h2 = h1, h2, h0
			copy(h2, cur)
			if histFill < 3 {
				histFill++
			}
		}
		res := step(next, cur)
		record(res)
		sinceTrial++
		if !math.IsNaN(prevPlainRes) && prevPlainRes > 0 && res > 0 {
			lambda = res / prevPlainRes
		}
		prevPlainRes = res
		cur, next = next, cur
		st.Residual = res
		if res < opts.Tol {
			st.Converged = true
			break
		}
		if !aitken || histFill < 3 || sinceTrial < opts.AitkenEvery || sweeps >= opts.MaxIter {
			continue
		}
		// h0..h2, cur are four consecutive iterates: extrapolate and
		// take one guarded trial step from the extrapolant.
		if !aitkenStep(y, h0, h1, h2, cur) {
			continue
		}
		if s := Normalize1(y); s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			continue
		}
		if reseed != nil {
			reseed(y)
		}
		trialRes := step(next, y)
		record(trialRes)
		sinceTrial = 0
		if trialRes < res {
			// Accept: continue from step(y). Seed the history with y so
			// the next extrapolation again sees consecutive iterates of
			// the same orbit (the shift above refills h0/h1 from the
			// continuing sequence).
			st.Extrapolations++
			if lambda > 0 && lambda < 1 {
				if plainSweeps := math.Log(trialRes/res) / math.Log(lambda); plainSweeps > 1 {
					savedEst += plainSweeps - 1
				}
			}
			copy(h2, y)
			histFill = 1
			prevPlainRes = trialRes
			cur, next = next, cur
			st.Residual = trialRes
			if trialRes < opts.Tol {
				st.Converged = true
				break
			}
		} else {
			// Reject: drop the trial and continue from x_k, re-priming
			// any pipelined step state for it. The wasted sweep counts
			// against the savings estimate.
			savedEst--
			if reseed != nil {
				reseed(cur)
			}
		}
	}
	st.Iterations = sweeps
	if savedEst > 0 {
		st.IterationsSaved = int(savedEst + 0.5)
	}
	st.Elapsed = time.Since(start)
	return cur, st, nil
}

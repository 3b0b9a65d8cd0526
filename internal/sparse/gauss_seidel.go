package sparse

// GaussSeidelPageRank solves the PageRank fixed point
//
//	x = d·(Mᵀx + danglingMass(x)·v) + (1-d)·v
//
// by in-place Gauss–Seidel sweeps instead of Jacobi-style power
// iteration: within one sweep, updating x[i] immediately uses the
// already-updated values of x[0..i-1]. On citation graphs — whose
// edges point backward in time, making the matrix nearly triangular
// when articles are indexed chronologically — a sweep propagates
// information much further than a power step, roughly halving the
// iteration count at equal tolerance. The dangling-mass term is
// frozen per sweep (recomputed at sweep start), which preserves the
// fixed point.
//
// teleport must be a probability distribution of length N().
func (t *Transition) GaussSeidelPageRank(damping float64, teleport []float64, opts IterOptions) ([]float64, IterStats, error) {
	step := func(dst, src []float64) float64 {
		copy(dst, src)
		dm := t.DanglingMass(dst)
		// Sweep from the highest index down: citation edges point
		// backward in time, so with chronological ids an article's
		// citers (its in-neighbors) have higher indices and are
		// already updated when the article itself is — one sweep then
		// pushes mass through whole citation chains.
		for v := t.n - 1; v >= 0; v-- {
			var s float64
			for i := t.offsets[v]; i < t.offsets[v+1]; i++ {
				s += dst[t.sources[i]] * t.norm[i]
			}
			dst[v] = damping*(s+dm*teleport[v]) + (1-damping)*teleport[v]
		}
		return L1Diff(dst, src)
	}
	x, st, err := FixedPointResidual(teleport, step, opts)
	if err != nil {
		return nil, st, err
	}
	// Gauss–Seidel does not preserve total mass mid-stream; normalise
	// so the result is comparable with the power-iteration solution.
	Normalize1(x)
	return x, st, nil
}

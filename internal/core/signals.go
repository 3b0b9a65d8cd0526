package core

import (
	"fmt"

	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
	"scholarrank/internal/temporal"
)

// fadeByAge returns scores (original order) multiplied by
// exp(-rho·age) in a fresh slice.
func fadeByAge(net *hetnet.Network, rho float64, scores []float64) ([]float64, error) {
	if rho == 0 {
		return sparse.Clone(scores), nil
	}
	fade, err := temporal.NewExponential(rho)
	if err != nil {
		return nil, fmt.Errorf("core: fade: %w", err)
	}
	out := rank.RecencyVector(net.Years, net.Now, fade)
	for i, v := range scores {
		out[i] *= v
	}
	return out, nil
}

// computePopularity scores each article by the decayed citation
// intensity Σ_{i→j} exp(-rho·(now - t_i)): how much *current*
// attention flows into it. With rho = 0 it degrades to the raw
// citation count. The decay weight depends only on the citing
// article's publication year, so it is computed once per year of the
// corpus's span, into a table each citing row indexes, instead of
// paying an exp per edge.
func computePopularity(net *hetnet.Network, opts Options) []float64 {
	kernel := temporal.Exponential{Rho: opts.RhoRecency}
	weight := func(y int32) float64 { return kernel.Weight(temporal.Age(net.Now, float64(y))) }
	years := net.Store().YearColumn()
	lo, hi := net.Store().YearRange()
	var decay []float64     // weight(lo+i) for each year of the span
	if hi-lo < len(years) { // only a corrupt year spans wider: no table then
		decay = make([]float64, hi-lo+1)
		for i := range decay {
			decay[i] = weight(int32(lo + i))
		}
	}
	pop := make([]float64, len(years))
	off, cited := net.Citations.CSR()
	for u, y := range years {
		row := cited[off[u]:off[u+1]]
		if len(row) == 0 {
			continue
		}
		var w float64
		if decay != nil {
			w = decay[int(y)-lo]
		} else {
			w = weight(y)
		}
		for _, v := range row {
			pop[v] += w
		}
	}
	return pop
}

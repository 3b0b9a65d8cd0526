package rank

import (
	"fmt"

	"scholarrank/internal/graph"
	"scholarrank/internal/temporal"
)

// GroupNormCiteCount divides each article's citation count by the
// mean citation count of articles in the same (group, year) cell,
// with add-one smoothing. With all groups equal it is the
// year-normalised count (the yearnorm scorer); with groups = research
// fields it is the field-normalised citation indicator (the RCR-style
// correction for fields with different citation densities). groups[i]
// is an opaque group label for article i. It is not a registered
// scorer because the labels come from outside the network.
func GroupNormCiteCount(g *graph.Graph, groups []int, years []float64) ([]float64, error) {
	if len(groups) != g.NumNodes() || len(years) != g.NumNodes() {
		return nil, fmt.Errorf("%w: groups/years length %d/%d, want %d",
			ErrBadParam, len(groups), len(years), g.NumNodes())
	}
	type cell struct {
		group, year int
	}
	in := g.InDegrees()
	sum := make(map[cell]float64)
	cnt := make(map[cell]int)
	for i, d := range in {
		c := cell{groups[i], int(years[i])}
		sum[c] += float64(d)
		cnt[c]++
	}
	scores := make([]float64, len(in))
	for i, d := range in {
		c := cell{groups[i], int(years[i])}
		mean := (sum[c] + 1) / float64(cnt[c])
		scores[i] = float64(d) / mean
	}
	return scores, nil
}

// RecencyVector builds the unnormalised teleport vector v_i =
// kernel(age_i).
func RecencyVector(years []float64, now float64, kernel temporal.Kernel) []float64 {
	v := make([]float64, len(years))
	for i, y := range years {
		v[i] = kernel.Weight(temporal.Age(now, y))
	}
	return v
}

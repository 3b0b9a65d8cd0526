package graph

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats summarises the structure of a graph. It is used by the corpus
// statistics table (T1) and by the generator's sanity checks.
type Stats struct {
	Nodes        int
	Edges        int
	Density      float64 // m / (n*(n-1))
	MaxInDegree  int
	MaxOutDegree int
	MeanInDegree float64
	Dangling     int     // nodes with out-degree 0
	Isolated     int     // nodes with no edges in either direction
	GiniInDegree float64 // concentration of in-degree
	PowerAlpha   float64 // MLE power-law exponent of the in-degree tail
	PowerXMin    int     // tail cutoff used for the MLE fit
}

// ComputeStats gathers Stats in O(n log n + m).
func ComputeStats(g *Graph) Stats {
	n, m := g.NumNodes(), g.NumEdges()
	s := Stats{Nodes: n, Edges: m}
	if n > 1 {
		s.Density = float64(m) / (float64(n) * float64(n-1))
	}
	in := g.InDegrees()
	for u := 0; u < n; u++ {
		od := g.OutDegree(NodeID(u))
		if od == 0 {
			s.Dangling++
			if in[u] == 0 {
				s.Isolated++
			}
		}
		if od > s.MaxOutDegree {
			s.MaxOutDegree = od
		}
		if in[u] > s.MaxInDegree {
			s.MaxInDegree = in[u]
		}
	}
	if n > 0 {
		s.MeanInDegree = float64(m) / float64(n)
	}
	s.GiniInDegree = gini(in)
	s.PowerAlpha, s.PowerXMin = PowerLawAlpha(in)
	return s
}

// gini computes the Gini coefficient of a non-negative integer
// distribution (0 = perfectly even, →1 = fully concentrated).
func gini(vals []int) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sorted := make([]int, n)
	copy(sorted, vals)
	sort.Ints(sorted)
	var cum, total float64
	for i, v := range sorted {
		cum += float64(v) * float64(2*(i+1)-n-1)
		total += float64(v)
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}

// PowerLawAlpha estimates the exponent alpha of a discrete power-law
// tail P(k) ~ k^-alpha using the standard Clauset–Shalizi–Newman MLE
// approximation alpha = 1 + n / sum(ln(k_i / (xmin - 0.5))) over the
// tail k_i >= xmin. The cutoff xmin is chosen as a small fixed
// quantile-based heuristic (the smallest value >= 5 present in the
// data) which is adequate for verifying the generator produces heavy
// tails; it is not a full goodness-of-fit search.
//
// It returns (0, 0) when the tail has fewer than 10 observations.
func PowerLawAlpha(degrees []int) (alpha float64, xmin int) {
	xmin = 5
	var tail []int
	for _, d := range degrees {
		if d >= xmin {
			tail = append(tail, d)
		}
	}
	if len(tail) < 10 {
		return 0, 0
	}
	var sumLog float64
	for _, d := range tail {
		sumLog += math.Log(float64(d) / (float64(xmin) - 0.5))
	}
	if sumLog <= 0 {
		return 0, 0
	}
	return 1 + float64(len(tail))/sumLog, xmin
}

// String renders the stats in a compact single-line form used by CLI
// output and logs.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d edges=%d density=%.3g meanIn=%.2f maxIn=%d maxOut=%d dangling=%d isolated=%d gini=%.3f",
		s.Nodes, s.Edges, s.Density, s.MeanInDegree, s.MaxInDegree, s.MaxOutDegree, s.Dangling, s.Isolated, s.GiniInDegree)
	if s.PowerAlpha > 0 {
		fmt.Fprintf(&b, " alpha=%.2f(xmin=%d)", s.PowerAlpha, s.PowerXMin)
	}
	return b.String()
}

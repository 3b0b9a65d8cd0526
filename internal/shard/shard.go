// Package shard partitions the citation graph into contiguous,
// edge-balanced row ranges for the sharded damped-walk solver.
//
// The partitioner operates on the solver-ordered graph (the
// chronological order computed at corpus freeze): contiguous ranges of
// that order are publication eras, which cite mostly within themselves
// and the eras before, so a contiguous partition is both a small cut
// and cheap to describe — k+1 boundaries instead of an n-element
// assignment. Boundaries are chosen in two steps: an equal-work target
// places each cut where the cumulative pull work (in-edges + 1 per
// row) reaches its ideal share, then the cut slides within a
// ±balanceSlack window around that target to the position crossed by
// the fewest edges. The first step bounds every
// shard's sweep work within ~10% of the mean; the second greedily
// minimises the boundary mass exchanged between shards each sweep.
package shard

import (
	"fmt"
	"sort"

	"scholarrank/internal/graph"
)

// balanceSlack is the half-width of the boundary window as a fraction
// of the ideal per-shard work. Each cut may drift at most this far
// from its equal-work target, so a shard's total work stays within
// 2·balanceSlack (= 10%) of the mean.
const balanceSlack = 0.05

// Plan is an edge-balanced contiguous partition of graph rows.
type Plan struct {
	// Bounds holds the shard boundaries: shard s covers rows
	// [Bounds[s], Bounds[s+1]). len(Bounds) == Shards()+1,
	// Bounds[0] == 0 and Bounds[Shards()] == n.
	Bounds []int32
	// Intra[s] counts pull edges whose source and destination both lie
	// in shard s; Cross[s] counts pull edges into shard s from another
	// shard (the rows shard s reads through its inbox).
	Intra []int64
	Cross []int64
	// Cut is the total number of cross-shard edges (Σ Cross).
	Cut int64
}

// Shards returns the number of shards in the plan.
func (p *Plan) Shards() int { return len(p.Bounds) - 1 }

// Edges returns the pull-sweep edge count of shard s (intra + cross) —
// the work metric the partition balances, up to the +1-per-row term.
func (p *Plan) Edges(s int) int64 { return p.Intra[s] + p.Cross[s] }

// EdgeCounts returns Edges(s) for every shard, in shard order.
func (p *Plan) EdgeCounts() []int64 {
	out := make([]int64, p.Shards())
	for s := range out {
		out[s] = p.Edges(s)
	}
	return out
}

// Partition splits g's rows into the requested number of contiguous
// shards. Work is measured in pull form (in-edges + 1 per row), the
// cost of the fused damped sweep. A shard count above the row count is
// clamped; shards < 1 is an error. The result is deterministic in g.
func Partition(g *graph.Graph, shards int) (*Plan, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d, want >= 1", shards)
	}
	n := g.NumNodes()
	if shards > n {
		shards = n
	}
	if n == 0 {
		return &Plan{Bounds: []int32{0, 0}, Intra: []int64{0}, Cross: []int64{0}}, nil
	}

	// cum[v] = pull work of rows [0, v): in-edges plus one per row.
	// crossDiff's prefix sums give crossAt[p], the number of edges
	// (u, v) with min(u,v) < p <= max(u,v) — the edges a cut at p
	// severs.
	cum := make([]int64, n+1)
	crossDiff := make([]int64, n+2)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			cum[int(v)+1]++
			lo, hi := int32(u), v
			if lo > hi {
				lo, hi = hi, lo
			}
			crossDiff[lo+1]++
			crossDiff[hi+1]--
		}
	}
	for v := 0; v < n; v++ {
		cum[v+1] += cum[v] + 1
	}
	crossAt := crossDiff[:n+1]
	for p := 1; p <= n; p++ {
		crossAt[p] += crossAt[p-1]
	}

	total := cum[n]
	bounds := make([]int32, shards+1)
	bounds[shards] = int32(n)
	for s := 1; s < shards; s++ {
		target := total * int64(s) / int64(shards)
		slack := int64(balanceSlack * float64(total) / float64(shards))
		// Window of candidate cuts whose cumulative work is within
		// ±slack of the target, clamped so every shard stays non-empty.
		wlo := sort.Search(n+1, func(p int) bool { return cum[p] >= target-slack })
		whi := sort.Search(n+1, func(p int) bool { return cum[p] > target+slack })
		if min := int(bounds[s-1]) + 1; wlo < min {
			wlo = min
		}
		if max := n - (shards - s) + 1; whi > max {
			whi = max
		}
		best := wlo
		if wlo >= whi {
			// Window collapsed (degenerate row weights near the target):
			// fall back to the equal-work position inside the legal range.
			best = sort.Search(n+1, func(p int) bool { return cum[p] >= target })
			if min := int(bounds[s-1]) + 1; best < min {
				best = min
			}
			if max := n - (shards - s); best > max {
				best = max
			}
		} else {
			for p := wlo; p < whi; p++ {
				switch {
				case crossAt[p] < crossAt[best]:
					best = p
				case crossAt[p] == crossAt[best] && workDist(cum, p, target) < workDist(cum, best, target):
					best = p
				}
			}
		}
		bounds[s] = int32(best)
	}

	p := &Plan{
		Bounds: bounds,
		Intra:  make([]int64, shards),
		Cross:  make([]int64, shards),
	}
	shardOf := func(v int32) int {
		return sort.Search(shards, func(s int) bool { return bounds[s+1] > v })
	}
	for u := 0; u < n; u++ {
		su := shardOf(int32(u))
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			sv := shardOf(v)
			if su == sv {
				p.Intra[sv]++
			} else {
				p.Cross[sv]++
				p.Cut++
			}
		}
	}
	return p, nil
}

// workDist is the absolute distance of cut position p's cumulative
// work from the equal-work target.
func workDist(cum []int64, p int, target int64) int64 {
	if d := cum[p] - target; d >= 0 {
		return d
	}
	return target - cum[p]
}

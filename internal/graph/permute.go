package graph

import (
	"fmt"
	"slices"
)

// Permute returns the graph relabelled by fwd, where fwd[u] is the new
// identity of node u: every edge u->v becomes fwd[u]->fwd[v]. fwd must
// be a bijection on [0, NumNodes()); Permute panics otherwise, as an
// invalid permutation indicates a corrupted caller invariant (the
// reorder pass and the SCORP loader both validate before relabelling).
//
// Rows of the result are re-sorted by the new target ids, so the
// permuted graph satisfies the same strictly-sorted-row invariant as
// any Builder-produced graph. The receiver is not modified. The operation is O(n + m log d) for maximum
// out-degree d.
func (g *Graph) Permute(fwd []NodeID) *Graph {
	if len(fwd) != g.n {
		panic(fmt.Sprintf("graph: Permute with %d-element map for n=%d", len(fwd), g.n))
	}
	seen := make([]bool, g.n)
	for u, nu := range fwd {
		if int(nu) < 0 || int(nu) >= g.n || seen[nu] {
			panic(fmt.Sprintf("graph: Permute map is not a bijection at node %d -> %d", u, nu))
		}
		seen[nu] = true
	}
	p := &Graph{
		n:       g.n,
		offsets: make([]int64, g.n+1),
		targets: make([]NodeID, len(g.targets)),
	}
	// Out-degrees move with their node, so the new offsets come from a
	// scatter of the old degrees followed by a prefix sum.
	for u := 0; u < g.n; u++ {
		p.offsets[fwd[u]+1] = g.offsets[u+1] - g.offsets[u]
	}
	for v := 0; v < g.n; v++ {
		p.offsets[v+1] += p.offsets[v]
	}
	for u := 0; u < g.n; u++ {
		row := g.targets[g.offsets[u]:g.offsets[u+1]]
		dst := p.offsets[fwd[u]]
		out := p.targets[dst : dst+int64(len(row))]
		for i, v := range row {
			out[i] = fwd[v]
		}
		slices.Sort(out)
	}
	return p
}

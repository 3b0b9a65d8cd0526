// Package graph provides a compact compressed-sparse-row (CSR)
// representation of directed graphs, together with the structural
// operations the ranking algorithms need: transposition, degree
// queries, traversal, and connected-component analysis.
//
// Nodes are dense integer indices in [0, NumNodes). Edges may carry
// float64 weights; an unweighted graph treats every edge as weight 1.
// A Graph is immutable once built, which makes it safe for concurrent
// readers without locking.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID is a dense node index. The package uses int32 node storage to
// halve the memory footprint of large citation graphs; corpora with
// more than ~2.1 billion nodes are out of scope.
type NodeID = int32

// ErrNodeRange reports an edge endpoint outside [0, n).
var ErrNodeRange = errors.New("graph: node index out of range")

// Graph is an immutable directed graph in CSR form.
//
// The zero value is an empty graph with no nodes and no edges.
type Graph struct {
	n       int
	offsets []int64   // len n+1; offsets[i]..offsets[i+1] index into targets
	targets []NodeID  // len m, sorted within each row
	weights []float64 // len m, or nil for an unweighted graph
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.targets) }

// Weighted reports whether the graph carries per-edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// OutDegree returns the number of edges leaving node u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the targets of the edges leaving u. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	return g.targets[g.offsets[u]:g.offsets[u+1]]
}

// CSR returns the graph's row offsets (len NumNodes()+1) and flat
// target array, rows strictly sorted. Both alias internal storage and
// must not be modified; kernels that sweep every row use them to skip
// the per-row Neighbors call.
func (g *Graph) CSR() (offsets []int64, targets []NodeID) {
	return g.offsets, g.targets
}

// EdgeWeights returns the weights of the edges leaving u, aligned with
// Neighbors(u). It returns nil for an unweighted graph. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) EdgeWeights(u NodeID) []float64 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[u]:g.offsets[u+1]]
}

// Weight returns the weight of the edge u->v, or 0 if the edge does
// not exist. An unweighted edge has weight 1.
func (g *Graph) Weight(u, v NodeID) float64 {
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if i == len(row) || row[i] != v {
		return 0
	}
	if g.weights == nil {
		return 1
	}
	return g.weights[g.offsets[u]+int64(i)]
}

// HasEdge reports whether the edge u->v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return i < len(row) && row[i] == v
}

// OutWeight returns the total weight of edges leaving u
// (the out-degree for unweighted graphs).
func (g *Graph) OutWeight(u NodeID) float64 {
	if g.weights == nil {
		return float64(g.OutDegree(u))
	}
	var s float64
	for _, w := range g.EdgeWeights(u) {
		s += w
	}
	return s
}

// InDegrees computes the in-degree of every node in one pass.
func (g *Graph) InDegrees() []int {
	deg := make([]int, g.n)
	for _, v := range g.targets {
		deg[v]++
	}
	return deg
}

// Transpose returns the reverse graph: an edge u->v becomes v->u.
// Weights are preserved. The operation is O(n + m).
func (g *Graph) Transpose() *Graph {
	t := &Graph{
		n:       g.n,
		offsets: make([]int64, g.n+1),
		targets: make([]NodeID, len(g.targets)),
	}
	if g.weights != nil {
		t.weights = make([]float64, len(g.weights))
	}
	// Counting sort by target.
	for _, v := range g.targets {
		t.offsets[v+1]++
	}
	for i := 0; i < g.n; i++ {
		t.offsets[i+1] += t.offsets[i]
	}
	cursor := make([]int64, g.n)
	copy(cursor, t.offsets[:g.n])
	for u := 0; u < g.n; u++ {
		base := g.offsets[u]
		row := g.targets[base:g.offsets[u+1]]
		for i, v := range row {
			pos := cursor[v]
			cursor[v]++
			t.targets[pos] = NodeID(u)
			if g.weights != nil {
				t.weights[pos] = g.weights[base+int64(i)]
			}
		}
	}
	// Rows of the transpose are produced in increasing source order,
	// so each row is already sorted by target.
	return t
}

// VisitEdges calls fn for every edge (u, v, w) in row order.
// For unweighted graphs w is 1.
func (g *Graph) VisitEdges(fn func(u, v NodeID, w float64)) {
	for u := 0; u < g.n; u++ {
		base := g.offsets[u]
		row := g.targets[base:g.offsets[u+1]]
		for i, v := range row {
			w := 1.0
			if g.weights != nil {
				w = g.weights[base+int64(i)]
			}
			fn(NodeID(u), v, w)
		}
	}
}

// Validate checks structural invariants (monotone offsets, in-range
// sorted targets). It is intended for tests and for data loaded from
// untrusted files; graphs produced by Builder always validate.
func (g *Graph) Validate() error {
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	if g.n > 0 && g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	for i := 0; i < g.n; i++ {
		if g.offsets[i+1] < g.offsets[i] {
			return fmt.Errorf("graph: offsets not monotone at node %d", i)
		}
	}
	if g.n > 0 && g.offsets[g.n] != int64(len(g.targets)) {
		return fmt.Errorf("graph: offsets end %d, want %d", g.offsets[g.n], len(g.targets))
	}
	if g.weights != nil && len(g.weights) != len(g.targets) {
		return fmt.Errorf("graph: weights length %d, want %d", len(g.weights), len(g.targets))
	}
	for u := 0; u < g.n; u++ {
		row := g.Neighbors(NodeID(u))
		for i, v := range row {
			if int(v) < 0 || int(v) >= g.n {
				return fmt.Errorf("%w: edge %d->%d", ErrNodeRange, u, v)
			}
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("graph: row %d not strictly sorted at %d", u, i)
			}
		}
	}
	return nil
}

// Package graph provides a compact compressed-sparse-row (CSR)
// representation of directed graphs, together with the structural
// operations the ranking algorithms need: transposition, degree
// queries, traversal, and connected-component analysis.
//
// Nodes are dense integer indices in [0, NumNodes). Edges carry no
// weights: an edge is present or not, and duplicates merge into one.
// A weighting of the edges is the business of the operator that walks
// them (sparse.Transition.GapWeighted is the only one). A Graph is
// immutable once built, which makes it safe for concurrent readers
// without locking.
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
	offsets []int64  // len n+1; offsets[i]..offsets[i+1] index into targets
	targets []NodeID // len m, sorted within each row
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.targets) }

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

// HasEdge reports whether the edge u->v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return i < len(row) && row[i] == v
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
// The operation is O(n + m).
func (g *Graph) Transpose() *Graph {
	t := &Graph{
		n:       g.n,
		offsets: make([]int64, g.n+1),
		targets: make([]NodeID, len(g.targets)),
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
		for _, v := range g.targets[g.offsets[u]:g.offsets[u+1]] {
			t.targets[cursor[v]] = NodeID(u)
			cursor[v]++
		}
	}
	// Rows of the transpose are produced in increasing source order,
	// so each row is already sorted by target.
	return t
}

// VisitEdges calls fn for every edge u->v in row order.
func (g *Graph) VisitEdges(fn func(u, v NodeID)) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.targets[g.offsets[u]:g.offsets[u+1]] {
			fn(NodeID(u), v)
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

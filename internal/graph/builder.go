package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates directed edges and produces an immutable Graph.
//
// Duplicate edges are merged into one. Builders are not safe for
// concurrent use.
type Builder struct {
	n    int
	srcs []NodeID
	dsts []NodeID
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// Grow raises the node count to at least n. Existing edges keep their
// endpoints.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge records the edge u->v.
func (b *Builder) AddEdge(u, v NodeID) error {
	if int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, u, v, b.n)
	}
	b.srcs = append(b.srcs, u)
	b.dsts = append(b.dsts, v)
	return nil
}

// Build sorts, merges and freezes the accumulated edges into a Graph.
// The Builder may be reused afterwards; it keeps its edges.
func (b *Builder) Build() *Graph {
	m := len(b.srcs)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, c := order[i], order[j]
		if b.srcs[a] != b.srcs[c] {
			return b.srcs[a] < b.srcs[c]
		}
		return b.dsts[a] < b.dsts[c]
	})

	g := &Graph{
		n:       b.n,
		offsets: make([]int64, b.n+1),
		targets: make([]NodeID, 0, m),
	}
	prevU, prevV := NodeID(-1), NodeID(-1)
	for _, idx := range order {
		u, v := b.srcs[idx], b.dsts[idx]
		if u == prevU && v == prevV {
			continue // duplicate edge: merge
		}
		g.targets = append(g.targets, v)
		g.offsets[u+1]++
		prevU, prevV = u, v
	}
	for i := 0; i < b.n; i++ {
		g.offsets[i+1] += g.offsets[i]
	}
	return g
}

// FromCSRRows builds a graph directly from CSR-shaped
// input: offsets is an (n+1)-element row delimiter array and dsts the
// flat target array. Each row is sorted and deduplicated
// independently — no global edge sort — which makes this much faster
// than Builder.Build for input that is already grouped by source,
// such as the corpus refs column. The input slices are not modified
// and not retained.
//
// Endpoints must lie in [0, n) and offsets must be monotone with
// offsets[0] == 0 and offsets[n] == len(dsts); FromCSRRows panics
// otherwise, as such input indicates a corrupted caller invariant
// (file loaders validate before constructing their stores).
func FromCSRRows(n int, offsets []int64, dsts []NodeID) *Graph {
	if n < 0 || len(offsets) != n+1 {
		panic(fmt.Sprintf("graph: FromCSRRows offsets length %d for n=%d", len(offsets), n))
	}
	if n > 0 && (offsets[0] != 0 || offsets[n] != int64(len(dsts))) {
		panic(fmt.Sprintf("graph: FromCSRRows offsets span [%d,%d] over %d targets",
			offsets[0], offsets[n], len(dsts)))
	}
	g := &Graph{
		n:       n,
		offsets: make([]int64, n+1),
		targets: make([]NodeID, 0, len(dsts)),
	}
	for u := 0; u < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		if hi < lo {
			panic(fmt.Sprintf("graph: FromCSRRows offsets not monotone at row %d", u))
		}
		start := len(g.targets)
		g.targets = append(g.targets, dsts[lo:hi]...)
		row := g.targets[start:]
		slices.Sort(row)
		w := 0
		prev := NodeID(-1)
		for i, v := range row {
			if int(v) < 0 || int(v) >= n {
				panic(fmt.Sprintf("graph: FromCSRRows edge %d->%d with n=%d", u, v, n))
			}
			if i > 0 && v == prev {
				continue
			}
			row[w] = v
			w++
			prev = v
		}
		g.targets = g.targets[:start+w]
		g.offsets[u+1] = int64(len(g.targets))
	}
	return g
}

// FromEdges is a convenience constructor building a graph from
// parallel endpoint slices.
func FromEdges(n int, src, dst []NodeID) (*Graph, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: endpoint slices differ in length: %d vs %d", len(src), len(dst))
	}
	b := NewBuilder(n)
	for i := range src {
		if err := b.AddEdge(src[i], dst[i]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

package graph

import (
	"math/rand"
	"testing"
)

func randomPermutation(rng *rand.Rand, n int) []NodeID {
	fwd := make([]NodeID, n)
	for i := range fwd {
		fwd[i] = NodeID(i)
	}
	rng.Shuffle(n, func(i, j int) { fwd[i], fwd[j] = fwd[j], fwd[i] })
	return fwd
}

// TestPermutePreservesStructure checks that a permuted graph validates,
// keeps every edge (relabelled), and that permuting by the inverse map
// restores the original adjacency.
func TestPermutePreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200
	b := NewBuilder(n)
	for i := 0; i < 1500; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	fwd := randomPermutation(rng, n)
	p := g.Permute(fwd)

	if err := p.Validate(); err != nil {
		t.Fatalf("permuted graph invalid: %v", err)
	}
	if p.NumEdges() != g.NumEdges() {
		t.Fatalf("edges: got %d, want %d", p.NumEdges(), g.NumEdges())
	}
	g.VisitEdges(func(u, v NodeID) {
		if !p.HasEdge(fwd[u], fwd[v]) {
			t.Fatalf("edge %d->%d missing as %d->%d", u, v, fwd[u], fwd[v])
		}
	})

	inv := make([]NodeID, n)
	for u, nu := range fwd {
		inv[nu] = NodeID(u)
	}
	back := p.Permute(inv)
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d edges, want %d", back.NumEdges(), g.NumEdges())
	}
	back.VisitEdges(func(u, v NodeID) {
		if !g.HasEdge(u, v) {
			t.Fatalf("round-trip edge %d->%d not in the original", u, v)
		}
	})
}

// TestPermuteIdentity checks the identity map reproduces the graph.
func TestPermuteIdentity(t *testing.T) {
	g, err := FromEdges(4, []NodeID{0, 1, 2, 2}, []NodeID{1, 2, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	id := []NodeID{0, 1, 2, 3}
	p := g.Permute(id)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := NodeID(0); int(u) < 4; u++ {
		got, want := p.Neighbors(u), g.Neighbors(u)
		if len(got) != len(want) {
			t.Fatalf("node %d: %v vs %v", u, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d: %v vs %v", u, got, want)
			}
		}
	}
}

// TestPermutePanicsOnBadMap checks the bijection guard.
func TestPermutePanicsOnBadMap(t *testing.T) {
	g, err := FromEdges(3, []NodeID{0}, []NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]NodeID{
		{0, 1},       // wrong length (short)
		{0, 1, 1},    // duplicate
		{0, 1, 3},    // out of range
		{0, -1, 2},   // negative
		{0, 1, 2, 3}, // wrong length (long)
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Permute(%v) did not panic", bad)
				}
			}()
			g.Permute(bad)
		}()
	}
}

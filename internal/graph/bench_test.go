package graph

import (
	"math/rand"
	"testing"
)

func benchEdges(n, perNode int) ([]NodeID, []NodeID) {
	rng := rand.New(rand.NewSource(1))
	src := make([]NodeID, 0, n*perNode)
	dst := make([]NodeID, 0, n*perNode)
	for i := 1; i < n; i++ {
		for r := 0; r < perNode; r++ {
			src = append(src, NodeID(i))
			dst = append(dst, NodeID(rng.Intn(i)))
		}
	}
	return src, dst
}

func BenchmarkBuild50k(b *testing.B) {
	src, dst := benchEdges(50_000, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(50_000)
		for j := range src {
			_ = bl.AddEdge(src[j], dst[j])
		}
		_ = bl.Build()
	}
}

func BenchmarkTranspose50k(b *testing.B) {
	src, dst := benchEdges(50_000, 12)
	g, err := FromEdges(50_000, src, dst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Transpose()
	}
}

func BenchmarkComputeStats50k(b *testing.B) {
	src, dst := benchEdges(50_000, 12)
	g, err := FromEdges(50_000, src, dst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ComputeStats(g)
	}
}

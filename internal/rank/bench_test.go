package rank

import (
	"testing"

	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// benchNetwork is the 20k-article generated corpus (seed 1) of the
// related-walk benchmarks and of TestRelatedCertificateSavesSweeps.
func benchNetwork(b testing.TB) *hetnet.Network {
	b.Helper()
	cfg := gen.NewDefaultConfig(20_000)
	cfg.Seed = 1
	c, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return hetnet.Build(c.Store)
}

var benchIter = sparse.IterOptions{Tol: 1e-9, MaxIter: 200}

// BenchmarkNewRelatedIndex20k is the index build over a network whose
// in-edge operator exists already (any solved network): O(articles),
// no per-citation allocation.
func BenchmarkNewRelatedIndex20k(b *testing.B) {
	net := benchNetwork(b)
	net.SolverView().CitationTransition()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewRelatedIndex(net, RelatedOptions{Iter: benchIter}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelatedQuery20k(b *testing.B) {
	net := benchNetwork(b)
	ri, err := NewRelatedIndex(net, RelatedOptions{Iter: benchIter})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ri.Related(int32(i%net.NumArticles()), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopK20k(b *testing.B) {
	net := benchNetwork(b)
	scores := make([]float64, net.NumArticles())
	for i, d := range net.Citations.InDegrees() {
		scores[i] = float64(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TopK(scores, 100)
	}
}

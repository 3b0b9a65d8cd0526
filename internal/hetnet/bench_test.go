package hetnet

import (
	"testing"

	"scholarrank/internal/gen"
)

// benchStore generates one realistic frozen corpus per benchmark run:
// preferential-attachment citations plus author and venue layers, the
// same shape the serving path feeds Build.
func benchStore(b *testing.B, n int) *gen.Corpus {
	b.Helper()
	cfg := gen.NewDefaultConfig(n)
	cfg.Seed = 42
	c, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkHetnetBuild measures assembling the heterogeneous network
// over a frozen store. Since the columnar refactor, Build aliases the
// store's CSR columns instead of re-deriving the bipartite layers, so
// the cost is dominated by the citation-graph view alone.
func BenchmarkHetnetBuild(b *testing.B) {
	c := benchStore(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := Build(c.Store)
		if net.NumArticles() != c.Store.NumArticles() {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkHetnetSolverView measures Build plus the solver view, built
// lazily on first use: on a generated corpus, which is in solver order,
// the view aliases the store's layer columns and derives only the
// kernels' inverse degrees, leak lists and chunk plans.
func BenchmarkHetnetSolverView(b *testing.B) {
	c := benchStore(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := Build(c.Store).SolverView(); v.NumArticles() != c.Store.NumArticles() {
			b.Fatal("bad view")
		}
	}
}

package eval

import (
	"math/rand"
	"testing"
)

func benchVecs(n int) (a, b []float64) {
	rng := rand.New(rand.NewSource(2))
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = a[i] + 0.2*rng.NormFloat64()
	}
	return a, b
}

func BenchmarkKendallTau100k(b *testing.B) {
	x, y := benchVecs(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KendallTau(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpearman100k(b *testing.B) {
	x, y := benchVecs(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Spearman(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPairwiseAccuracySampled(b *testing.B) {
	x, y := benchVecs(100_000)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PairwiseAccuracy(x, y, rng, 200_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNDCG100k(b *testing.B) {
	x, y := benchVecs(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NDCG(x, y, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrder300k and BenchmarkPercentiles300k time the one order
// primitive at the bench corpus size.
func BenchmarkOrder300k(b *testing.B) {
	x, _ := benchVecs(300_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Order(x)
	}
}

func BenchmarkPercentiles300k(b *testing.B) {
	x, _ := benchVecs(300_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Percentiles(x)
	}
}

func BenchmarkRBO10k(b *testing.B) {
	x, y := benchVecs(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RBO(x, y, 0.98); err != nil {
			b.Fatal(err)
		}
	}
}

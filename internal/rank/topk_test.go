package rank

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// topKVector draws n heavily tied scores over ±0, ±Inf, subnormals and
// random magnitudes; withNaN mixes in NaNs of different payloads.
func topKVector(rng *rand.Rand, n int, withNaN bool) []float64 {
	pool := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1,
	}
	for i := 0; i < 16; i++ {
		pool = append(pool, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12)-6)))
	}
	if withNaN {
		pool = append(pool, math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001))
	}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = rng.Float64()
			continue
		}
		v[i] = pool[rng.Intn(len(pool))]
	}
	return v
}

// TestTopKRadixMatchesHeap pins the crossover: on NaN-free scores
// TopK equals the heap selection at every k around it, and on scores
// with NaNs its full-ranking path returns the numbers in order and the
// NaNs last.
func TestTopKRadixMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{257, 100_000} {
		c := n / topKRadixShare
		ks := []int{1, 10, c - 1, c, n}
		clean := topKVector(rng, n, false)
		for _, k := range ks {
			if got, want := TopK(clean, k), heapTopK(clean, k); !slices.Equal(got, want) {
				t.Errorf("n=%d k=%d: TopK differs from the heap", n, k)
			}
		}
		dirty := topKVector(rng, n, true)
		for _, k := range []int{c, n} {
			checkNaNsLast(t, "n="+strconv.Itoa(n)+" k="+strconv.Itoa(k), dirty, TopK(dirty, k), k == n)
		}
	}
}

func checkNaNsLast(t *testing.T, name string, scores []float64, got []int, full bool) {
	t.Helper()
	seen := make([]bool, len(scores))
	nan := false
	for p, i := range got {
		if seen[i] {
			t.Fatalf("%s: index %d repeated", name, i)
		}
		seen[i] = true
		s := scores[i]
		if math.IsNaN(s) {
			nan = true
			continue
		}
		if nan {
			t.Fatalf("%s: number %v at %d after a NaN", name, s, p)
		}
		if p > 0 {
			prev := scores[got[p-1]]
			if prev < s || (prev == s && got[p-1] > i) {
				t.Fatalf("%s: %v (idx %d) before %v (idx %d)", name, prev, got[p-1], s, i)
			}
		}
	}
	if full && slices.Contains(seen, false) {
		t.Fatalf("%s: not a permutation", name)
	}
}

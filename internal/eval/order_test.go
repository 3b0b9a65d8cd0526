package eval

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// The comparator sort Order used before the radix sort, kept as the
// oracle: descending score, NaNs after every number, ties by index.
type oraclePair struct {
	score float64
	index int32
}

func oraclePairs(scores []float64) []oraclePair {
	pairs := make([]oraclePair, len(scores))
	for i, s := range scores {
		pairs[i] = oraclePair{s, int32(i)}
	}
	slices.SortFunc(pairs, func(a, b oraclePair) int {
		if a.score > b.score {
			return -1
		}
		if a.score < b.score {
			return 1
		}
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return int(a.index) - int(b.index)
	})
	return pairs
}

func oracleOrder(scores []float64) []int {
	out := make([]int, len(scores))
	for i, p := range oraclePairs(scores) {
		out[i] = int(p.index)
	}
	return out
}

func oracleRanks(scores []float64) []float64 {
	n := len(scores)
	pairs := oraclePairs(scores)
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && pairs[j+1].score == pairs[i].score {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[pairs[k].index] = avg
		}
		i = j + 1
	}
	return ranks
}

func oraclePercentiles(scores []float64) []float64 {
	n := len(scores)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []float64{1}
	}
	out := oracleRanks(scores)
	for i, avg := range out {
		out[i] = 1 - (avg-1)/float64(n-1)
	}
	return out
}

// orderEdgeValues are the scores whose order the key mapping must get
// right: both zeros, both infinities, NaNs with different payloads and
// signs, subnormals and the extreme normals.
var orderEdgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), -math.NaN(),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead00000000),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5,
}

// tiedVector draws n scores from a small pool — random values plus the
// edge values — so that most scores tie with many others, the way the
// popularity signal does (12.7k distinct values in 300k).
func tiedVector(rng *rand.Rand, n int) []float64 {
	pool := append([]float64(nil), orderEdgeValues...)
	for i := 0; i < 24; i++ {
		pool = append(pool, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(20)-10)))
	}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = rng.NormFloat64()
			continue
		}
		v[i] = pool[rng.Intn(len(pool))]
	}
	return v
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

func checkAgainstOracle(t *testing.T, name string, v []float64) {
	t.Helper()
	if got, want := Order(v), oracleOrder(v); !slices.Equal(got, want) {
		t.Errorf("%s: Order differs from the comparator order", name)
	}
	if got, want := Ranks(v), oracleRanks(v); !sameBits(got, want) {
		t.Errorf("%s: Ranks differ from the oracle", name)
	}
	if got, want := Percentiles(v), oraclePercentiles(v); !sameBits(got, want) || (got == nil) != (want == nil) {
		t.Errorf("%s: Percentiles differ from the oracle", name)
	}
}

// TestOrderMatchesComparator checks the radix order and the two tie
// walks over it against the comparator sort they replaced, on heavily
// tied vectors full of edge values, at sizes around the 256-bucket
// digit and one well past it.
func TestOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{0, 1, 2, 255, 256, 257, 100_000} {
		for trial := 0; trial < 3; trial++ {
			checkAgainstOracle(t, "tied/n="+strconv.Itoa(n), tiedVector(rng, n))
		}
		uniform := make([]float64, n)
		for i := range uniform {
			uniform[i] = rng.Float64()
		}
		checkAgainstOracle(t, "uniform/n="+strconv.Itoa(n), uniform)
	}
	checkAgainstOracle(t, "edge-values", orderEdgeValues)
}

// FuzzOrder reads the input as float64 bit patterns, so the fuzzer
// reaches every NaN payload, subnormal and signed zero: the radix
// order must equal the comparator order.
func FuzzOrder(f *testing.F) {
	var seed []byte
	for _, v := range orderEdgeValues {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := make([]float64, len(raw)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkAgainstOracle(t, "fuzz", v)
	})
}

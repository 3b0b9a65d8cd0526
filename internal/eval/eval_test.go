package eval

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestOrder(t *testing.T) {
	got := Order([]float64{0.2, 0.9, 0.9, 0.1})
	want := []int{1, 2, 0, 3} // tie 1/2 breaks by index
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Order = %v, want %v", got, want)
	}
	if got := Order(nil); len(got) != 0 {
		t.Errorf("Order(nil) = %v", got)
	}
}

func TestRanks(t *testing.T) {
	got := Ranks([]float64{10, 30, 20})
	want := []float64{3, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Ranks = %v, want %v", got, want)
	}
	// Ties share the average rank.
	got = Ranks([]float64{5, 5, 1})
	want = []float64{1.5, 1.5, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tied Ranks = %v, want %v", got, want)
	}
}

func TestPercentiles(t *testing.T) {
	got := Percentiles([]float64{1, 3, 2})
	want := []float64{0, 1, 0.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Percentiles = %v, want %v", got, want)
	}
	if got := Percentiles([]float64{7}); got[0] != 1 {
		t.Errorf("single-item percentile = %v", got)
	}
	if got := Percentiles(nil); got != nil {
		t.Errorf("Percentiles(nil) = %v", got)
	}
}

func TestPairwiseAccuracyExact(t *testing.T) {
	truth := []float64{1, 2, 3, 4}
	perfect := []float64{10, 20, 30, 40}
	acc, pairs, err := PairwiseAccuracy(perfect, truth, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 || pairs != 6 {
		t.Errorf("perfect acc = %v pairs = %d", acc, pairs)
	}
	reversed := []float64{40, 30, 20, 10}
	acc, _, err = PairwiseAccuracy(reversed, truth, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0 {
		t.Errorf("reversed acc = %v", acc)
	}
	constant := []float64{5, 5, 5, 5}
	acc, _, err = PairwiseAccuracy(constant, truth, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.5 {
		t.Errorf("constant-prediction acc = %v, want 0.5", acc)
	}
}

func TestPairwiseAccuracyIgnoresTruthTies(t *testing.T) {
	truth := []float64{1, 1, 2}
	pred := []float64{9, 1, 5} // pair (0,1) is a truth tie: ignored
	acc, pairs, err := PairwiseAccuracy(pred, truth, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pairs != 2 {
		t.Errorf("pairs = %d, want 2", pairs)
	}
	// (0,2): truth says 2 better, pred says 0 better -> wrong.
	// (1,2): truth says 2 better, pred says 2 better -> right.
	if acc != 0.5 {
		t.Errorf("acc = %v, want 0.5", acc)
	}
}

func TestPairwiseAccuracySampled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5000
	truth := make([]float64, n)
	pred := make([]float64, n)
	for i := range truth {
		truth[i] = float64(i)
		pred[i] = float64(i) + 40*rng.NormFloat64()
	}
	exact, _, err := PairwiseAccuracy(pred, truth, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sampled, pairs, err := PairwiseAccuracy(pred, truth, rng, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if pairs == 0 || math.Abs(sampled-exact) > 0.02 {
		t.Errorf("sampled %v vs exact %v (pairs %d)", sampled, exact, pairs)
	}
}

func TestPairwiseAccuracyEdgeCases(t *testing.T) {
	if _, _, err := PairwiseAccuracy([]float64{1}, []float64{1, 2}, nil, 0); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("mismatch err = %v", err)
	}
	acc, pairs, err := PairwiseAccuracy([]float64{1}, []float64{1}, nil, 0)
	if err != nil || !math.IsNaN(acc) || pairs != 0 {
		t.Errorf("single item: %v %d %v", acc, pairs, err)
	}
	acc, _, err = PairwiseAccuracy([]float64{1, 2}, []float64{3, 3}, nil, 0)
	if err != nil || !math.IsNaN(acc) {
		t.Errorf("all-tied truth: %v %v", acc, err)
	}
}

func TestKendallTau(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	tau, err := KendallTau(a, a)
	if err != nil || !almostEq(tau, 1, 1e-12) {
		t.Errorf("identity tau = %v err %v", tau, err)
	}
	rev := []float64{5, 4, 3, 2, 1}
	tau, _ = KendallTau(a, rev)
	if !almostEq(tau, -1, 1e-12) {
		t.Errorf("reversed tau = %v", tau)
	}
	// Hand-checked example: a=(1,2,3), b=(1,3,2): one discordant of
	// three pairs -> tau = (2-1)/3 = 1/3.
	tau, _ = KendallTau([]float64{1, 2, 3}, []float64{1, 3, 2})
	if !almostEq(tau, 1.0/3, 1e-12) {
		t.Errorf("tau = %v, want 1/3", tau)
	}
}

func TestKendallTauTies(t *testing.T) {
	// With ties: a=(1,1,2), b=(1,2,3). Untied-a pairs: (0,2) and
	// (1,2), both concordant. n0=3, n1=1 (a tie), n2=0, n3=0.
	// tau-b = 2 / sqrt(2*3) = 0.8165.
	tau, err := KendallTau([]float64{1, 1, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tau, 2/math.Sqrt(6), 1e-12) {
		t.Errorf("tau-b = %v, want %v", tau, 2/math.Sqrt(6))
	}
	// Constant vector: undefined.
	tau, _ = KendallTau([]float64{1, 1}, []float64{1, 2})
	if !math.IsNaN(tau) {
		t.Errorf("constant tau = %v, want NaN", tau)
	}
}

func TestKendallTauErrorsAndTiny(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v", err)
	}
	tau, err := KendallTau([]float64{1}, []float64{1})
	if err != nil || !math.IsNaN(tau) {
		t.Errorf("n=1 tau = %v", tau)
	}
}

// Brute-force tau-b for cross-checking Knight's algorithm.
func bruteTauB(a, b []float64) float64 {
	n := len(a)
	var conc, disc, tieA, tieB int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da == 0 && db == 0:
				// joint tie: excluded from both denominator factors
			case da == 0:
				tieA++
			case db == 0:
				tieB++
			case da*db > 0:
				conc++
			default:
				disc++
			}
		}
	}
	n0 := int64(n) * int64(n-1) / 2
	jointTies := n0 - conc - disc - tieA - tieB
	den := math.Sqrt(float64(n0-tieA-jointTies)) * math.Sqrt(float64(n0-tieB-jointTies))
	if den == 0 {
		return math.NaN()
	}
	return float64(conc-disc) / den
}

func TestQuickKendallMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(8)) // force ties
			b[i] = float64(rng.Intn(8))
		}
		fast, err := KendallTau(a, b)
		if err != nil {
			return false
		}
		slow := bruteTauB(a, b)
		if math.IsNaN(fast) || math.IsNaN(slow) {
			return math.IsNaN(fast) == math.IsNaN(slow)
		}
		return almostEq(fast, slow, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpearman(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	rho, err := Spearman(a, a)
	if err != nil || !almostEq(rho, 1, 1e-12) {
		t.Errorf("identity rho = %v", rho)
	}
	rho, _ = Spearman(a, []float64{4, 3, 2, 1})
	if !almostEq(rho, -1, 1e-12) {
		t.Errorf("reversed rho = %v", rho)
	}
	rho, _ = Spearman([]float64{1, 1, 1}, a[:3])
	if !math.IsNaN(rho) {
		t.Errorf("constant rho = %v", rho)
	}
	if _, err := Spearman([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v", err)
	}
}

func TestNDCG(t *testing.T) {
	rel := []float64{3, 2, 1, 0}
	perfect := []float64{9, 8, 7, 6}
	v, err := NDCG(perfect, rel, 4)
	if err != nil || !almostEq(v, 1, 1e-12) {
		t.Errorf("perfect NDCG = %v err %v", v, err)
	}
	// Worst ordering has NDCG < 1.
	worst := []float64{1, 2, 3, 4}
	v, _ = NDCG(worst, rel, 4)
	if v >= 1 {
		t.Errorf("worst NDCG = %v", v)
	}
	// Hand value for k=2, pred order = (3,2,...): rel 0 then 1:
	// DCG = 0/1 + 1/log2(3); IDCG = 3/1 + 2/log2(3).
	v, _ = NDCG(worst, rel, 2)
	want := (1 / math.Log2(3)) / (3 + 2/math.Log2(3))
	if !almostEq(v, want, 1e-12) {
		t.Errorf("NDCG@2 = %v, want %v", v, want)
	}
	// Zero relevance -> NaN.
	v, _ = NDCG(perfect, []float64{0, 0, 0, 0}, 2)
	if !math.IsNaN(v) {
		t.Errorf("zero-rel NDCG = %v", v)
	}
	if _, err := NDCG([]float64{1}, []float64{1, 2}, 1); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v", err)
	}
	// k <= 0 or beyond length clamps to full.
	a, _ := NDCG(perfect, rel, 0)
	b, _ := NDCG(perfect, rel, 99)
	if a != b {
		t.Errorf("clamped NDCG differ: %v vs %v", a, b)
	}
}

func TestRecallAtK(t *testing.T) {
	pred := []float64{0.9, 0.8, 0.7, 0.1}
	relevant := map[int]bool{0: true, 3: true}
	if r := RecallAtK(pred, relevant, 2); r != 0.5 {
		t.Errorf("R@2 = %v", r)
	}
	if r := RecallAtK(pred, relevant, 4); r != 1 {
		t.Errorf("R@4 = %v", r)
	}
	if r := RecallAtK(pred, map[int]bool{}, 2); !math.IsNaN(r) {
		t.Errorf("empty-set recall = %v", r)
	}
}

func TestAveragePrecision(t *testing.T) {
	pred := []float64{0.9, 0.8, 0.7, 0.1}
	// Relevant = {0, 2}: hits at ranks 1 and 3 -> AP = (1/1 + 2/3)/2.
	ap := AveragePrecision(pred, map[int]bool{0: true, 2: true})
	if !almostEq(ap, (1+2.0/3)/2, 1e-12) {
		t.Errorf("AP = %v", ap)
	}
	if ap := AveragePrecision(pred, map[int]bool{}); !math.IsNaN(ap) {
		t.Errorf("empty AP = %v", ap)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, math.NaN()}
	if m := Mean(xs); !almostEq(m, 2, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if s := StdDev(xs); !almostEq(s, 1, 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
	if m := Mean([]float64{math.NaN()}); !math.IsNaN(m) {
		t.Errorf("all-NaN mean = %v", m)
	}
	if s := StdDev([]float64{5}); s != 0 {
		t.Errorf("single StdDev = %v", s)
	}
}

// Property: pairwise accuracy of a prediction against itself is 1.
func TestQuickSelfAccuracyIsOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		acc, pairs, err := PairwiseAccuracy(x, x, nil, 0)
		if err != nil {
			return false
		}
		return pairs == 0 && math.IsNaN(acc) || acc == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Spearman and Kendall agree in sign on untied data.
func TestQuickCorrelationSignsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		a := rng.Perm(n)
		b := rng.Perm(n)
		af := make([]float64, n)
		bf := make([]float64, n)
		for i := range af {
			af[i] = float64(a[i])
			bf[i] = float64(b[i])
		}
		tau, err1 := KendallTau(af, bf)
		rho, err2 := Spearman(af, bf)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(tau) < 0.1 || math.Abs(rho) < 0.1 {
			return true // too weak to demand sign agreement
		}
		return (tau > 0) == (rho > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

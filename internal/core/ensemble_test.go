package core

import (
	"math"
	"testing"
)

// combineOpts returns options with the given ensemble and equal
// weights, percentile normalisation.
func combineOpts(kind EnsembleKind, norm NormKind) Options {
	o := DefaultOptions()
	o.Ensemble = kind
	o.Normalization = norm
	o.WPrestige, o.WPopularity, o.WHetero = 1, 1, 1
	return o
}

func TestCombineArithmeticGolden(t *testing.T) {
	// Three items; percentile-normalised signals are hand-computable:
	// p = (1, 0.5, 0), q = (0, 0.5, 1), h = (1, 0.5, 0).
	p := []float64{30, 20, 10}
	q := []float64{1, 2, 3}
	h := []float64{300, 200, 100}
	out, err := combine(combineOpts(Arithmetic, NormPercentile), &Scores{Prestige: p, Popularity: q, Hetero: h})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.0 / 3, 0.5, 1.0 / 3}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestCombineHarmonicZeroDominance(t *testing.T) {
	// Harmonic: an item at percentile 0 on any signal scores ≈ 0 no
	// matter how strong the others are.
	p := []float64{30, 20, 10}
	q := []float64{1, 2, 3}
	h := []float64{300, 200, 100}
	out, err := combine(combineOpts(Harmonic, NormPercentile), &Scores{Prestige: p, Popularity: q, Hetero: h})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] > 1e-6 {
		t.Errorf("item with a zero signal scored %v under harmonic", out[0])
	}
}

func TestCombineGeometricBetweenBounds(t *testing.T) {
	p := []float64{3, 2, 1, 5}
	q := []float64{1, 4, 2, 5}
	h := []float64{2, 2, 9, 1}
	hOut, err := combine(combineOpts(Harmonic, NormPercentile), &Scores{Prestige: p, Popularity: q, Hetero: h})
	if err != nil {
		t.Fatal(err)
	}
	gOut, err := combine(combineOpts(Geometric, NormPercentile), &Scores{Prestige: p, Popularity: q, Hetero: h})
	if err != nil {
		t.Fatal(err)
	}
	aOut, err := combine(combineOpts(Arithmetic, NormPercentile), &Scores{Prestige: p, Popularity: q, Hetero: h})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if hOut[i] > gOut[i]+1e-6 || gOut[i] > aOut[i]+1e-6 {
			t.Errorf("mean inequality violated at %d: H=%v G=%v A=%v", i, hOut[i], gOut[i], aOut[i])
		}
	}
}

func TestCombineMinMaxNormalization(t *testing.T) {
	// Min-max keeps the raw magnitudes: a single huge outlier pins
	// everything else near zero, which is exactly why percentile is
	// the default.
	p := []float64{1000, 2, 1}
	q := []float64{1000, 2, 1}
	h := []float64{1000, 2, 1}
	out, err := combine(combineOpts(Arithmetic, NormMinMax), &Scores{Prestige: p, Popularity: q, Hetero: h})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Errorf("outlier score = %v, want 1", out[0])
	}
	if out[1] > 0.01 {
		t.Errorf("non-outlier score = %v, want ≈0 under min-max", out[1])
	}
	// Under percentile normalisation the same data spreads evenly.
	pOut, err := combine(combineOpts(Arithmetic, NormPercentile), &Scores{Prestige: p, Popularity: q, Hetero: h})
	if err != nil {
		t.Fatal(err)
	}
	if pOut[1] != 0.5 {
		t.Errorf("percentile middle score = %v, want 0.5", pOut[1])
	}
}

func TestCombineWeightsNormalised(t *testing.T) {
	// Scaling all weights by a constant must not change the result.
	p := []float64{3, 1, 2}
	q := []float64{1, 2, 3}
	h := []float64{2, 3, 1}
	a := combineOpts(Arithmetic, NormPercentile)
	a.WPrestige, a.WPopularity, a.WHetero = 1, 2, 3
	b := a
	b.WPrestige, b.WPopularity, b.WHetero = 10, 20, 30
	outA, err := combine(a, &Scores{Prestige: p, Popularity: q, Hetero: h})
	if err != nil {
		t.Fatal(err)
	}
	outB, err := combine(b, &Scores{Prestige: p, Popularity: q, Hetero: h})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outA {
		if math.Abs(outA[i]-outB[i]) > 1e-12 {
			t.Errorf("weight scaling changed result at %d: %v vs %v", i, outA[i], outB[i])
		}
	}
}

func TestCombineUnknownEnsemble(t *testing.T) {
	o := combineOpts(EnsembleKind(42), NormPercentile)
	if _, err := combine(o, &Scores{Prestige: []float64{1}, Popularity: []float64{1}, Hetero: []float64{1}}); err == nil {
		t.Error("unknown ensemble accepted by combine")
	}
}

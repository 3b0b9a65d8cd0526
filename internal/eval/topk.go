package eval

import (
	"math"
)

// NDCG computes the normalised discounted cumulative gain at cutoff k
// of the predicted ordering against non-negative relevance values:
//
//	DCG@k = Σ_{i<k} rel[order_i] / log2(i+2)
//
// normalised by the ideal ordering's DCG. It returns NaN when every
// relevance is zero.
func NDCG(pred []float64, relevance []float64, k int) (float64, error) {
	if len(pred) != len(relevance) {
		return 0, ErrLengthMismatch
	}
	if k <= 0 || k > len(pred) {
		k = len(pred)
	}
	dcg := dcgAt(Order(pred), relevance, k)
	ideal := dcgAt(Order(relevance), relevance, k)
	if ideal == 0 {
		return math.NaN(), nil
	}
	return dcg / ideal, nil
}

func dcgAt(order []int, rel []float64, k int) float64 {
	var s float64
	for i := 0; i < k && i < len(order); i++ {
		s += rel[order[i]] / math.Log2(float64(i)+2)
	}
	return s
}

// RecallAtK returns the fraction of the relevant set found in the
// top-k predicted items. It returns NaN for an empty relevant set.
func RecallAtK(pred []float64, relevant map[int]bool, k int) float64 {
	if len(relevant) == 0 {
		return math.NaN()
	}
	order := Order(pred)
	if k > len(order) {
		k = len(order)
	}
	var hits int
	for _, i := range order[:k] {
		if relevant[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(relevant))
}

// AveragePrecision computes AP of the predicted ordering against the
// relevant set: the mean of precision@rank over the ranks where a
// relevant item appears. It returns NaN for an empty relevant set.
func AveragePrecision(pred []float64, relevant map[int]bool) float64 {
	if len(relevant) == 0 {
		return math.NaN()
	}
	order := Order(pred)
	var hits int
	var sum float64
	for pos, i := range order {
		if relevant[i] {
			hits++
			sum += float64(hits) / float64(pos+1)
		}
	}
	return sum / float64(len(relevant))
}

// Mean returns the arithmetic mean of xs, ignoring NaNs. It returns
// NaN when no finite value is present.
func Mean(xs []float64) float64 {
	var s float64
	var n int
	for _, v := range xs {
		if math.IsNaN(v) {
			continue
		}
		s += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// StdDev returns the sample standard deviation of xs, ignoring NaNs.
func StdDev(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) {
		return math.NaN()
	}
	var ss float64
	var n int
	for _, v := range xs {
		if math.IsNaN(v) {
			continue
		}
		d := v - m
		ss += d * d
		n++
	}
	if n < 2 {
		return 0
	}
	return math.Sqrt(ss / float64(n-1))
}

package main

import (
	"math"
	"sort"
	"time"
)

// percentileCandidates are the percentiles a latency sample may be
// summarised by, lowest first.
var percentileCandidates = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest candidate percentile that
// still has at least ten samples beyond it in a sample of n, or 0 when
// not even the median does (n < 20).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 99.9 is not exact in binary
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of v (mean of the middle two for an
// even count) without modifying v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of v by the
// exclusive method, the one Python's statistics.quantiles(v, n=4)
// uses, so the spreads printed here match the ones the gate computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// ms and secs convert durations to the float units metrics carry.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// in converts durations to floats counted in unit.
func in(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

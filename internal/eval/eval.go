// Package eval implements the ranking-quality metrics used by the
// experiment suite: sampled pairwise ordering accuracy, Kendall τ-b,
// Spearman ρ, NDCG@k, precision/recall@k, average precision, and
// rank-percentile utilities for the cold-start analysis.
//
// Conventions: "scores" are importance values where higher is better;
// "truth" vectors are ground-truth values (future citations, latent
// quality) where higher is better.
package eval

import (
	"errors"
	"math"
	"math/rand"
)

// ErrLengthMismatch reports score vectors of different lengths.
var ErrLengthMismatch = errors.New("eval: length mismatch")

// Order returns item indices sorted by descending score, ties broken
// by ascending index for determinism. −0 ties with +0 and every NaN
// sorts after every number (NaNs tie with each other, whatever their
// payload). It is the one full-length ordering of a score vector:
// Ranks, Percentiles and rank.TopK's large-k path all walk it.
func Order(scores []float64) []int {
	order := radixOrder(scores, make([]float64, len(scores)))
	idx := make([]int, len(order))
	for i, o := range order {
		idx[i] = int(o)
	}
	return idx
}

// orderKey maps a score to a uint64 whose ascending order is Order's:
// descending score, −0 folded onto +0, every NaN last.
func orderKey(s float64) uint64 {
	if s != s {
		return math.MaxUint64
	}
	if s == 0 {
		s = 0 // −0 → +0
	}
	b := math.Float64bits(s)
	if b>>63 == 0 {
		// Non-negative: larger magnitudes must come first, below every
		// negative score.
		return ^b &^ (1 << 63)
	}
	// Negative: larger magnitudes come later.
	return b
}

// radixBits is the digit width of radixOrder's passes. Measured at
// 300k scores, 11 bits (six passes, 2048 buckets) beat both 8 bits
// (eight passes) and 13 or 16 (scatters over too many buckets).
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixPasses  = (64 + radixBits - 1) / radixBits
)

// radixOrder is Order as int32 indices: a stable LSD radix sort of the
// indices by orderKey, so equal keys keep ascending index order. Only
// the indices move; each pass gathers its digit from the key column.
// A pass whose digit is the same for every key is skipped.
//
// keys (len(scores)) is the caller's scratch for that column, holding
// each key as a float64 bit pattern: averageRanks passes its output
// vector, which it writes only after the sort, so the sort's own
// scratch is the two int32 index buffers, 8 B per item.
func radixOrder(scores, keys []float64) []int32 {
	n := len(scores)
	if n == 0 {
		return nil
	}
	var counts [radixPasses][radixBuckets]int32
	for i, s := range scores {
		k := orderKey(s)
		keys[i] = math.Float64frombits(k)
		for p := range counts {
			counts[p][(k>>(p*radixBits))&(radixBuckets-1)]++
		}
	}
	buf := make([]int32, 2*n)
	idx, tmp := buf[:n], buf[n:]
	for i := range idx {
		idx[i] = int32(i)
	}
	for p := range counts {
		shift := uint(p * radixBits)
		c := &counts[p]
		if c[(math.Float64bits(keys[0])>>shift)&(radixBuckets-1)] == int32(n) {
			continue
		}
		var sum int32
		for d, cnt := range c {
			c[d] = sum
			sum += cnt
		}
		for _, i := range idx {
			d := (math.Float64bits(keys[i]) >> shift) & (radixBuckets - 1)
			tmp[c[d]] = i
			c[d]++
		}
		idx, tmp = tmp, idx
	}
	return idx
}

// averageRanks walks Order and gives every item value(avg), where avg
// is the 1-based rank position averaged over the item's run of equal
// scores. Runs are found by comparing the scores themselves, so −0
// ties with +0 and each NaN is a run of its own.
func averageRanks(scores []float64, value func(avg float64) float64) []float64 {
	n := len(scores)
	out := make([]float64, n)
	order := radixOrder(scores, out)
	for i := 0; i < n; {
		s := scores[order[i]]
		j := i
		for j+1 < n && scores[order[j+1]] == s {
			j++
		}
		v := value(float64(i+j)/2 + 1)
		for _, o := range order[i : j+1] {
			out[o] = v
		}
		i = j + 1
	}
	return out
}

// Ranks assigns each item its 1-based rank position under descending
// score order, averaging ranks across ties (the convention Spearman ρ
// requires).
func Ranks(scores []float64) []float64 {
	return averageRanks(scores, func(avg float64) float64 { return avg })
}

// Percentiles maps each item's score to its rank percentile in [0, 1],
// where 1 means best-ranked. Ties share their average percentile.
func Percentiles(scores []float64) []float64 {
	n := len(scores)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []float64{1}
	}
	return averageRanks(scores, func(avg float64) float64 {
		// Same arithmetic as 1 - (avgRank-1)/(n-1) over 1-based ranks.
		return 1 - (avg-1)/float64(n-1)
	})
}

// PairwiseAccuracy estimates the probability that the prediction
// orders a random pair of items the same way the truth does,
// considering only pairs the truth distinguishes. Pairs the
// prediction ties count as half correct. It samples `samples` pairs
// using rng; if samples <= 0 or exceeds the exact pair count for
// small inputs, all pairs are evaluated exactly.
//
// It returns the accuracy and the number of informative pairs
// evaluated; accuracy is NaN when no informative pair was found.
// A nil rng selects a fixed-seed source, so callers that do not care
// about the sampling stream get deterministic results.
func PairwiseAccuracy(pred, truth []float64, rng *rand.Rand, samples int) (float64, int, error) {
	if len(pred) != len(truth) {
		return 0, 0, ErrLengthMismatch
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := len(pred)
	if n < 2 {
		return math.NaN(), 0, nil
	}
	exactPairs := n * (n - 1) / 2
	var correct float64
	var counted int
	score := func(i, j int) {
		if truth[i] == truth[j] {
			return
		}
		counted++
		ti := truth[i] > truth[j]
		switch {
		case pred[i] == pred[j]:
			correct += 0.5
		case (pred[i] > pred[j]) == ti:
			correct++
		}
	}
	if samples <= 0 || (n <= 2048 && samples >= exactPairs) {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				score(i, j)
			}
		}
	} else {
		for s := 0; s < samples; s++ {
			i := rng.Intn(n)
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			score(i, j)
		}
	}
	if counted == 0 {
		return math.NaN(), 0, nil
	}
	return correct / float64(counted), counted, nil
}

package core

import (
	"fmt"
	"math"

	"scholarrank/internal/eval"
	"scholarrank/internal/sparse"
)

// ensembleEps keeps the harmonic and geometric means defined when a
// normalised signal is exactly zero, while preserving their
// weakest-link character.
const ensembleEps = 1e-9

// normalize rescales a signal to [0, 1] under the configured rule.
func normalize(opts Options, x []float64) []float64 {
	switch opts.Normalization {
	case NormMinMax:
		out := sparse.Clone(x)
		sparse.MinMaxScale(out)
		return out
	default: // NormPercentile
		return eval.Percentiles(x)
	}
}

// combine normalises the component signals of sc and folds them into
// the importance vector according to the configured ensemble. The
// signals are not modified. Under percentile normalisation the
// normalised signals are kept on sc, where NewExplainer reuses them.
//
// The default normalisation is the rank percentile rather than
// min–max: citation-derived signals are extremely heavy tailed, and
// min–max lets a single outlier compress every other article into a
// sliver near zero, destroying the ensemble's resolution. Percentile
// normalisation is a Borda-style rank fusion that keeps full ordering
// information from every signal.
func combine(opts Options, sc *Scores) ([]float64, error) {
	n := len(sc.Prestige)
	p := normalize(opts, sc.Prestige)
	q := normalize(opts, sc.Popularity)
	h := normalize(opts, sc.Hetero)
	if opts.Normalization == NormPercentile {
		sc.percentiles = [3][]float64{p, q, h}
	}

	wSum := opts.WPrestige + opts.WPopularity + opts.WHetero
	wp := opts.WPrestige / wSum
	wq := opts.WPopularity / wSum
	wh := opts.WHetero / wSum

	out := make([]float64, n)
	switch opts.Ensemble {
	case Arithmetic:
		for i := range out {
			out[i] = wp*p[i] + wq*q[i] + wh*h[i]
		}
	case Geometric:
		for i := range out {
			out[i] = math.Exp(wp*math.Log(p[i]+ensembleEps)+
				wq*math.Log(q[i]+ensembleEps)+
				wh*math.Log(h[i]+ensembleEps)) - ensembleEps
			if out[i] < 0 {
				out[i] = 0
			}
		}
	case Harmonic:
		for i := range out {
			denom := wp/(p[i]+ensembleEps) + wq/(q[i]+ensembleEps) + wh/(h[i]+ensembleEps)
			out[i] = 1/denom - ensembleEps
			if out[i] < 0 {
				out[i] = 0
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown ensemble kind %d", ErrBadOptions, int(opts.Ensemble))
	}
	return out, nil
}

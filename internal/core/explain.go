package core

import (
	"errors"
	"fmt"

	"scholarrank/internal/eval"
)

// ErrBadExplain reports invalid explanation arguments.
var ErrBadExplain = errors.New("core: invalid explain request")

// SignalDelta is one component's contribution to an importance
// difference, in rank-percentile terms.
type SignalDelta struct {
	Signal string  // "prestige", "popularity" or "hetero"
	A, B   float64 // the two articles' percentiles on this signal
	Delta  float64 // A - B
}

// Explanation decomposes why article A outranks (or trails) article B.
type Explanation struct {
	A, B     int // dense article ids
	Winner   int // id of the higher-importance article
	Signals  []SignalDelta
	Dominant string // the signal with the largest absolute percentile gap
}

// Explainer answers "why is X above Y" queries over one Scores
// result. It precomputes the per-signal percentile vectors once, so
// each query is O(1) — the form a ranking service wants.
type Explainer struct {
	importance []float64
	signals    []string
	pct        [][]float64
}

// NewExplainer precomputes percentile vectors for the scores. Only
// the component signals the producing scorer actually computed are
// explained: a single-stage or external-baseline scorer leaves its
// unused components nil, and Explain then reports just the signals
// that exist (possibly none). The composite's percentile ensemble has
// already ranked its three signals, and those vectors are shared; the
// rest (min–max normalisation, single-signal scorers, scores read
// from a snapshot) are ranked here.
func NewExplainer(sc *Scores) *Explainer {
	e := &Explainer{importance: sc.Importance}
	for i, sig := range []struct {
		name string
		vec  []float64
	}{
		{"prestige", sc.Prestige},
		{"popularity", sc.Popularity},
		{"hetero", sc.Hetero},
	} {
		if sig.vec == nil {
			continue
		}
		pct := sc.percentiles[i]
		if pct == nil {
			pct = eval.Percentiles(sig.vec)
		}
		e.signals = append(e.signals, sig.name)
		e.pct = append(e.pct, pct)
	}
	return e
}

// Explain decomposes the importance difference between two articles
// into per-signal percentile gaps.
func (e *Explainer) Explain(a, b int) (*Explanation, error) {
	n := len(e.importance)
	if a < 0 || a >= n || b < 0 || b >= n {
		return nil, fmt.Errorf("%w: ids %d,%d of %d", ErrBadExplain, a, b, n)
	}
	if a == b {
		return nil, fmt.Errorf("%w: identical articles", ErrBadExplain)
	}
	ex := &Explanation{A: a, B: b, Winner: a}
	if e.importance[b] > e.importance[a] {
		ex.Winner = b
	}
	for i, name := range e.signals {
		pct := e.pct[i]
		ex.Signals = append(ex.Signals, SignalDelta{
			Signal: name, A: pct[a], B: pct[b], Delta: pct[a] - pct[b],
		})
	}
	var maxAbs float64
	for _, s := range ex.Signals {
		abs := s.Delta
		if abs < 0 {
			abs = -abs
		}
		if abs >= maxAbs {
			maxAbs = abs
			ex.Dominant = s.Signal
		}
	}
	return ex, nil
}

// Explain is the convenience one-shot form of Explainer.Explain; hold
// an Explainer for repeated queries.
func (sc *Scores) Explain(a, b int) (*Explanation, error) {
	return NewExplainer(sc).Explain(a, b)
}

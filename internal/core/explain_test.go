package core

import (
	"math"
	"runtime"
	"testing"
)

// TestExplainerSharesEnsemblePercentiles checks that the explainer
// reuses the percentiles the composite's ensemble computed, allocating
// no vector of the corpus's length, and that every explainer, whether
// it reuses them or ranks the signals itself (min–max ensemble, a
// single-signal scorer), answers bit for bit what one built from the
// bare vectors answers.
func TestExplainerSharesEnsemblePercentiles(t *testing.T) {
	_, net := genNetwork(t, 4000)
	eng := NewEngine(net)
	minMax := DefaultOptions()
	minMax.Normalization = NormMinMax
	for _, c := range []struct {
		name   string
		scorer string
		opts   Options
		shared bool
	}{
		{"default", DefaultScorer, DefaultOptions(), true},
		{"minmax", DefaultScorer, minMax, false},
		{"hetero", ScorerHetero, DefaultOptions(), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc, err := eng.RankScorer(c.scorer, nil, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			n := len(sc.Importance)
			if c.shared {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				NewExplainer(sc)
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(8*n) {
					t.Errorf("NewExplainer allocated %d bytes; one vector is %d", grew, 8*n)
				}
			}
			got := NewExplainer(sc)
			fresh := NewExplainer(&Scores{Importance: sc.Importance,
				Prestige: sc.Prestige, Popularity: sc.Popularity, Hetero: sc.Hetero})
			if len(got.pct) != len(fresh.pct) || len(got.pct) == 0 {
				t.Fatalf("%d signals explained, want %d", len(got.pct), len(fresh.pct))
			}
			for s := range got.pct {
				for i := range got.pct[s] {
					if math.Float64bits(got.pct[s][i]) != math.Float64bits(fresh.pct[s][i]) {
						t.Fatalf("%s percentile of %d: %v, freshly ranked %v",
							got.signals[s], i, got.pct[s][i], fresh.pct[s][i])
					}
				}
			}
			for a := 0; a < n; a += 97 {
				b := (a*31 + 7) % n
				if a == b {
					continue
				}
				ex, err := got.Explain(a, b)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Explain(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Winner != want.Winner || ex.Dominant != want.Dominant {
					t.Fatalf("Explain(%d, %d) = %+v, freshly ranked %+v", a, b, ex, want)
				}
				for i, s := range ex.Signals {
					w := want.Signals[i]
					if s.Signal != w.Signal || math.Float64bits(s.A) != math.Float64bits(w.A) ||
						math.Float64bits(s.B) != math.Float64bits(w.B) || math.Float64bits(s.Delta) != math.Float64bits(w.Delta) {
						t.Fatalf("Explain(%d, %d) signal %d = %+v, freshly ranked %+v", a, b, i, s, w)
					}
				}
			}
		})
	}
}

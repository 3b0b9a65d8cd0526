package core

import (
	"errors"
	"testing"

	"scholarrank/internal/sparse"
)

func TestScorerNames(t *testing.T) {
	names := ScorerNames()
	if len(names) == 0 || names[0] != DefaultScorer {
		t.Fatalf("ScorerNames() = %v, want %q first", names, DefaultScorer)
	}
	want := map[string]bool{
		DefaultScorer: true, ScorerPrestige: true, ScorerPopularity: true,
		ScorerHetero: true, ScorerEWPR: true, ScorerALEF: true,
		ScorerCiteCount: true, ScorerYearNorm: true, ScorerAgeNorm: true,
		ScorerPageRank: true, ScorerHITS: true, ScorerSCEAS: true,
		ScorerTimedPR: true, ScorerCiteRank: true, ScorerFutureRank: true,
		ScorerVWPageRank: true, ScorerCoRank: true, ScorerPRank: true,
	}
	if len(names) != len(want) {
		t.Errorf("ScorerNames() lists %d scorers, want %d", len(names), len(want))
	}
	for _, name := range names {
		delete(want, name)
		if doc, ok := ScorerDoc(name); !ok || doc == "" {
			t.Errorf("scorer %q has no description", name)
		}
	}
	if len(want) != 0 {
		t.Errorf("registry is missing scorers: %v", want)
	}
}

func TestNewScorerUnknown(t *testing.T) {
	if _, err := NewScorer("no-such-scorer", nil); !errors.Is(err, ErrUnknownScorer) {
		t.Fatalf("err = %v, want ErrUnknownScorer", err)
	}
}

func TestScorerOptionValidation(t *testing.T) {
	cases := []struct {
		scorer string
		opts   ScorerOptions
	}{
		{DefaultScorer, ScorerOptions{"bogus": 1}},
		{ScorerEWPR, ScorerOptions{"bogus": 1}},
		{ScorerEWPR, ScorerOptions{"damping": 1.5}},
		{ScorerEWPR, ScorerOptions{"venue_gamma": -1}},
		{ScorerALEF, ScorerOptions{"damping": 0}},
		{ScorerALEF, ScorerOptions{"venue_gamma": 0.5}}, // ewpr-only key
	}
	for _, c := range cases {
		if _, err := NewScorer(c.scorer, c.opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("NewScorer(%q, %v) err = %v, want ErrBadOptions", c.scorer, c.opts, err)
		}
	}
	if _, err := NewScorer(ScorerEWPR, ScorerOptions{"damping": 0.9, "venue_gamma": 1, "author_gamma": 0}); err != nil {
		t.Errorf("valid ewpr bag rejected: %v", err)
	}
}

func TestScorerOptionsGetClone(t *testing.T) {
	var nilBag ScorerOptions
	if v := nilBag.Get("damping", 0.85); v != 0.85 {
		t.Errorf("nil bag Get = %v, want default", v)
	}
	if nilBag.Clone() != nil {
		t.Error("nil bag Clone should stay nil")
	}
	bag := ScorerOptions{"damping": 0.5}
	if v := bag.Get("damping", 0.85); v != 0.5 {
		t.Errorf("Get = %v, want 0.5", v)
	}
	c := bag.Clone()
	c["damping"] = 0.7
	if bag["damping"] != 0.5 {
		t.Error("Clone aliases the original bag")
	}
}

func TestRegisterScorerDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterScorer did not panic")
		}
	}()
	RegisterScorer(DefaultScorer, "dup", func(ScorerOptions) (Scorer, error) { return qisaScorer{}, nil })
}

// TestRankScorerComponents checks which component vectors each scorer
// deposits, and that the Scorer/ScorerOpts metadata lands on the
// result.
func TestRankScorerComponents(t *testing.T) {
	_, net := genNetwork(t, 200)
	eng := NewEngine(net)
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Iter = sparse.IterOptions{Tol: 1e-10, MaxIter: 500}

	cases := []struct {
		scorer                       string
		bag                          ScorerOptions
		prestige, popularity, hetero bool
	}{
		{DefaultScorer, nil, true, true, true},
		{ScorerPrestige, nil, true, false, false},
		{ScorerPopularity, nil, false, true, false},
		{ScorerHetero, nil, false, false, true},
		{ScorerEWPR, ScorerOptions{"damping": 0.8}, false, false, false},
		{ScorerALEF, nil, false, false, false},
	}
	for _, c := range cases {
		sc, err := eng.RankScorer(c.scorer, c.bag, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.scorer, err)
		}
		if sc.Scorer != c.scorer {
			t.Errorf("%s: Scores.Scorer = %q", c.scorer, sc.Scorer)
		}
		if len(sc.Importance) != net.NumArticles() {
			t.Errorf("%s: importance length %d, want %d", c.scorer, len(sc.Importance), net.NumArticles())
		}
		if (sc.Prestige != nil) != c.prestige || (sc.Popularity != nil) != c.popularity || (sc.Hetero != nil) != c.hetero {
			t.Errorf("%s: components prestige=%v popularity=%v hetero=%v, want %v/%v/%v",
				c.scorer, sc.Prestige != nil, sc.Popularity != nil, sc.Hetero != nil,
				c.prestige, c.popularity, c.hetero)
		}
		if c.bag != nil && sc.ScorerOpts["damping"] != c.bag["damping"] {
			t.Errorf("%s: ScorerOpts = %v, want %v", c.scorer, sc.ScorerOpts, c.bag)
		}
		var total float64
		for _, v := range sc.Importance {
			if v < 0 {
				t.Errorf("%s: negative importance %v", c.scorer, v)
				break
			}
			total += v
		}
		if total <= 0 {
			t.Errorf("%s: importance has no mass", c.scorer)
		}
	}
}

// TestScorersProduceDistinctRankings is a sanity check that the new
// baselines are not accidental aliases of the default pipeline.
func TestScorersProduceDistinctRankings(t *testing.T) {
	_, net := genNetwork(t, 300)
	eng := NewEngine(net)
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Iter = sparse.IterOptions{Tol: 1e-10, MaxIter: 500}
	def, err := eng.RankScorer(DefaultScorer, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ScorerEWPR, ScorerALEF} {
		sc, err := eng.RankScorer(name, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sparse.MaxDiff(sc.Importance, def.Importance) < 1e-9 {
			t.Errorf("%s: importance is numerically identical to the default pipeline", name)
		}
	}
}

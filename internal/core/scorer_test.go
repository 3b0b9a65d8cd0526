package core

import (
	"errors"
	"maps"
	"testing"

	"scholarrank/internal/eval"
	"scholarrank/internal/sparse"
)

func TestScorerNames(t *testing.T) {
	names := ScorerNames()
	if len(names) == 0 || names[0] != DefaultScorer {
		t.Fatalf("ScorerNames() = %v, want %q first", names, DefaultScorer)
	}
	want := map[string]bool{
		DefaultScorer: true, ScorerPrestige: true, ScorerPopularity: true,
		ScorerHetero: true, ScorerEWPR: true,
		ScorerCiteCount: true, ScorerYearNorm: true, ScorerAgeNorm: true,
		ScorerPageRank: true, ScorerHITS: true, ScorerSCEAS: true,
		ScorerTimedPR: true, ScorerCiteRank: true, ScorerFutureRank: true,
		ScorerCoRank: true, ScorerPRank: true,
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
		{ScorerEWPR, ScorerOptions{"rho": 0.3}}, // the recency walk's rate is Options.RhoRecency
	}
	for _, c := range cases {
		if _, err := NewScorer(c.scorer, c.opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("NewScorer(%q, %v) err = %v, want ErrBadOptions", c.scorer, c.opts, err)
		}
	}
	if _, err := NewScorer(ScorerEWPR, ScorerOptions{"damping": 0.9}); err != nil {
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
	RegisterScorer(DefaultScorer, "dup", func(ScorerOptions) (Scorer, error) { return popularityScorer{}, nil })
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
		{ScorerSCEAS, ScorerOptions{"decay": 0.5}, false, false, false},
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
		if !maps.Equal(sc.ScorerOpts, c.bag) {
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

// TestScorersProduceDistinctRankings guards the registry against
// aliases: every pair of registered scorers must rank one generated
// corpus differently, Kendall τ < 0.999. A scorer that is a monotone
// transform of another (a weight that cancels under row
// normalisation, an affine read-out of the same walk) fails here.
// distinctExceptions lists the pairs allowed through, in ScorerNames
// order, each with the reason.
func TestScorersProduceDistinctRankings(t *testing.T) {
	distinctExceptions := map[[2]string]string{}
	_, net := genNetwork(t, 4000)
	eng := NewEngine(net)
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Iter = sparse.IterOptions{Tol: 1e-10, MaxIter: 500}
	names := ScorerNames()
	scores := make([][]float64, len(names))
	for i, name := range names {
		sc, err := eng.RankScorer(name, nil, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scores[i] = sc.Importance
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			pair := [2]string{names[i], names[j]}
			tau, err := eval.KendallTau(scores[i], scores[j])
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := distinctExceptions[pair]; !ok && !(tau < 0.999) {
				t.Errorf("%s and %s rank alike: Kendall τ %.6f", pair[0], pair[1], tau)
			}
		}
	}
}

package core

import (
	"errors"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// TestCoRankReportsRealConvergence pins the author-less fallback: with
// no author class Co-Ranking is the PageRank walk, and the result must
// carry that walk's own convergence, not a claim of it.
func TestCoRankReportsRealConvergence(t *testing.T) {
	b := corpus.NewBuilder()
	var ids []corpus.ArticleID
	for i, year := range []int{2000, 2002, 2004, 2006, 2008} {
		id, err := b.AddArticle(corpus.ArticleMeta{Key: string(rune('a' + i)), Year: year, Venue: corpus.NoVenue})
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range ids {
			if err := b.AddCitation(id, ref); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, id)
	}
	net := hetnet.Build(b.Freeze())
	if net.NumAuthors() != 0 {
		t.Fatalf("fixture has %d authors", net.NumAuthors())
	}
	opts := DefaultOptions()
	opts.Iter = sparse.IterOptions{MaxIter: 1}
	capped, err := RankScorer(net, ScorerCoRank, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := capped.PrestigeStats; st.Converged || st.Iterations != 1 {
		t.Errorf("one-sweep cap: stats %+v, want 1 unconverged iteration", st)
	}
	full, err := RankScorer(net, ScorerCoRank, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !full.PrestigeStats.Converged || full.Authors != nil {
		t.Errorf("uncapped: converged %v, %d author scores", full.PrestigeStats.Converged, len(full.Authors))
	}
}

func TestBaselineOptionValidation(t *testing.T) {
	for _, c := range []struct {
		scorer string
		opts   ScorerOptions
	}{
		{ScorerCiteCount, ScorerOptions{"damping": 0.85}},
		{ScorerHITS, ScorerOptions{"rho": 1}},
		{ScorerPageRank, ScorerOptions{"rho": 0.3}}, // citerank/timedpr only
		{ScorerPageRank, ScorerOptions{"damping": 1}},
		{ScorerCiteRank, ScorerOptions{"rho": -1}},
		{ScorerTimedPR, ScorerOptions{"damping": 0}},
		{ScorerSCEAS, ScorerOptions{"decay": 1}},
		{ScorerSCEAS, ScorerOptions{"bonus": -1}},
		{ScorerFutureRank, ScorerOptions{"alpha": 0.6, "beta": 0.3, "gamma": 0.2}},
		{ScorerCoRank, ScorerOptions{"coupling": 0}},
		{ScorerPRank, ScorerOptions{"paper": 0.5}},
		{ScorerEWPR, ScorerOptions{"venue_gamma": 1}},
	} {
		if _, err := NewScorer(c.scorer, c.opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("NewScorer(%q, %v) err = %v, want ErrBadOptions", c.scorer, c.opts, err)
		}
	}
}

// TestBaselineOptionBags checks that bag values reach the solve: an
// explicit zero SCEAS bonus is honoured (not mistaken for "unset"),
// and CiteRank with a flat recency kernel is PageRank.
func TestBaselineOptionBags(t *testing.T) {
	_, net := genNetwork(t, 300)
	eng := NewEngine(net)
	opts := scorerTestOptions()
	rankWith := func(name string, bag ScorerOptions) []float64 {
		t.Helper()
		sc, err := eng.RankScorer(name, bag, opts)
		if err != nil {
			t.Fatalf("%s %v: %v", name, bag, err)
		}
		return sc.Importance
	}
	for _, v := range rankWith(ScorerSCEAS, ScorerOptions{"bonus": 0}) {
		if v != 0 {
			t.Fatalf("sceas with bonus 0 scored %v, want all zero", v)
		}
	}
	if d := sparse.MaxDiff(rankWith(ScorerCiteRank, ScorerOptions{"rho": 0}), rankWith(ScorerPageRank, nil)); d > 1e-12 {
		t.Errorf("citerank with rho 0 deviates from pagerank by %v", d)
	}
}

// TestSCEASUncitedScoreZero pins the SCEAS read-out at articles
// nobody cites: their score is exactly 0, where the affine map of the
// walk would leave a rounding error of either sign. Perturbed years
// give the walk back edges, so it stops short of the exact fixed point.
func TestSCEASUncitedScoreZero(t *testing.T) {
	store, _ := genNetwork(t, 600)
	noisy, err := gen.PerturbYears(store, 0.2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := hetnet.Build(noisy)
	sc, err := RankScorer(net, ScorerSCEAS, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := net.Citations.InDegrees()
	for i, v := range sc.Importance {
		if v < 0 || (v == 0) != (in[i] == 0) {
			t.Fatalf("article %d with %d citations scored %v", i, in[i], v)
		}
	}
}

// TestScorerOptionsAreLive checks that every option the README's
// scorer table documents reaches the solve: moving one key from its
// default must move the scorer's importance. prank's layer weights
// must sum to 1, so each of those bags moves a second weight too.
func TestScorerOptionsAreLive(t *testing.T) {
	_, net := genNetwork(t, 300)
	eng := NewEngine(net)
	opts := scorerTestOptions()
	for _, c := range []struct {
		scorer, key string
		bag         ScorerOptions
	}{
		{ScorerPageRank, "damping", ScorerOptions{"damping": 0.7}},
		{ScorerSCEAS, "decay", ScorerOptions{"decay": 0.6}},
		{ScorerSCEAS, "bonus", ScorerOptions{"bonus": 2}},
		{ScorerTimedPR, "damping", ScorerOptions{"damping": 0.7}},
		{ScorerTimedPR, "rho", ScorerOptions{"rho": 0.4}},
		{ScorerCiteRank, "damping", ScorerOptions{"damping": 0.7}},
		{ScorerCiteRank, "rho", ScorerOptions{"rho": 0.2}},
		{ScorerFutureRank, "alpha", ScorerOptions{"alpha": 0.4}},
		{ScorerFutureRank, "beta", ScorerOptions{"beta": 0.1}},
		{ScorerFutureRank, "gamma", ScorerOptions{"gamma": 0.1}},
		{ScorerFutureRank, "rho", ScorerOptions{"rho": 0.6}},
		{ScorerCoRank, "coupling", ScorerOptions{"coupling": 0.4}},
		{ScorerCoRank, "damping", ScorerOptions{"damping": 0.7}},
		{ScorerPRank, "paper", ScorerOptions{"paper": 0.8, "venue": 0}},
		{ScorerPRank, "author", ScorerOptions{"author": 0.4, "venue": 0}},
		{ScorerPRank, "venue", ScorerOptions{"venue": 0.4, "author": 0}},
		{ScorerPRank, "damping", ScorerOptions{"damping": 0.7}},
		{ScorerEWPR, "damping", ScorerOptions{"damping": 0.7}},
	} {
		def, err := eng.RankScorer(c.scorer, nil, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.scorer, err)
		}
		moved, err := eng.RankScorer(c.scorer, c.bag, opts)
		if err != nil {
			t.Fatalf("%s %v: %v", c.scorer, c.bag, err)
		}
		if d := sparse.MaxDiff(moved.Importance, def.Importance); !(d > 1e-9) {
			t.Errorf("%s %s: %v moves importance by %v", c.scorer, c.key, c.bag, d)
		}
	}
}

// BenchmarkBaselineScorers20k ranks a 20k-article corpus cold with each
// iterative baseline through the one-shot RankScorer path.
func BenchmarkBaselineScorers20k(b *testing.B) {
	cfg := gen.NewDefaultConfig(20_000)
	cfg.Seed = 1
	c, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	net := hetnet.Build(c.Store)
	opts := DefaultOptions()
	opts.Iter = sparse.IterOptions{Tol: 1e-9, MaxIter: 200}
	for _, name := range []string{ScorerPageRank, ScorerCiteRank, ScorerHITS, ScorerSCEAS,
		ScorerFutureRank, ScorerEWPR, ScorerCoRank, ScorerPRank} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RankScorer(net, name, nil, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

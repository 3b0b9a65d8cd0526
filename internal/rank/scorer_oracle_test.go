package rank_test

import (
	"math/rand"
	"slices"
	"testing"

	"scholarrank/internal/core"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
)

// oracleCorpora returns the three corpus shapes the baseline scorers
// are checked on: uniformly random citations, a power-law in-degree
// tail, and a corpus with perturbed years, whose citations partly
// point forward in solver order (back edges) and whose solver order is
// a non-identity permutation of the store order.
func oracleCorpora(t *testing.T) map[string]*hetnet.Network {
	t.Helper()
	generate := func(prefAttach float64, seed int64) *gen.Corpus {
		cfg := gen.NewDefaultConfig(600)
		cfg.PrefAttach = prefAttach
		cfg.Seed = seed
		c, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	backEdged, err := gen.PerturbYears(generate(0.5, 13).Store, 0.2, 3, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if backEdged.SolverPermutation() == nil {
		t.Fatal("perturbed years left the corpus in chronological id order")
	}
	return map[string]*hetnet.Network{
		"random":     hetnet.Build(generate(0, 11).Store),
		"power-law":  hetnet.Build(generate(1, 12).Store),
		"back-edged": hetnet.Build(backEdged),
	}
}

// TestBaselineScorersMatchOracles checks every baseline scorer in
// internal/core against the implementation it replaced (oracle_test.go):
// closed-form counts bit for bit, iterative scorers to 1e-9 at a tight
// tolerance, and the four citation walks, which now sweep
// Gauss–Seidel, in no more sweeps than the oracle's Jacobi iteration.
func TestBaselineScorersMatchOracles(t *testing.T) {
	iter := sparse.IterOptions{Tol: 1e-13, MaxIter: 5000}
	pr := rank.PageRankOptions{Iter: iter}
	futureRank := rank.DefaultFutureRankOptions()
	futureRank.Iter = iter
	pRank := rank.DefaultPRankOptions()
	pRank.Iter = iter
	oracles := []struct {
		scorer string
		exact  bool // closed form: bit-identical
		walk   bool // citation walk: no more sweeps than the oracle
		run    func(net *hetnet.Network) (rank.Result, error)
	}{
		{core.ScorerCiteCount, true, false, func(net *hetnet.Network) (rank.Result, error) {
			return rank.CiteCount(net.Citations), nil
		}},
		{core.ScorerYearNorm, true, false, func(net *hetnet.Network) (rank.Result, error) {
			return rank.YearNormCiteCount(net.Citations, net.Years), nil
		}},
		{core.ScorerAgeNorm, true, false, func(net *hetnet.Network) (rank.Result, error) {
			return rank.AgeNormCiteCount(net.Citations, net.Years, net.Now), nil
		}},
		{core.ScorerPageRank, false, true, func(net *hetnet.Network) (rank.Result, error) {
			return rank.PageRank(net.Citations, pr)
		}},
		{core.ScorerCiteRank, false, true, func(net *hetnet.Network) (rank.Result, error) {
			return rank.CiteRank(net.Citations, net.Years, net.Now, rank.CiteRankOptions{Rho: 0.38, PageRank: pr})
		}},
		{core.ScorerTimedPR, false, true, func(net *hetnet.Network) (rank.Result, error) {
			return rank.TimedPageRank(net.Citations, net.Years, net.Now, 0.2, pr)
		}},
		{core.ScorerHITS, false, false, func(net *hetnet.Network) (rank.Result, error) {
			return rank.HITSAuthority(net.Citations, iter)
		}},
		{core.ScorerSCEAS, false, true, func(net *hetnet.Network) (rank.Result, error) {
			return rank.SceasRank(net.Citations, rank.SceasRankOptions{Iter: iter})
		}},
		{core.ScorerFutureRank, false, false, func(net *hetnet.Network) (rank.Result, error) {
			return rank.FutureRank(net, futureRank)
		}},
		{core.ScorerCoRank, false, false, func(net *hetnet.Network) (rank.Result, error) {
			r, err := rank.CoRank(net, rank.CoRankOptions{Iter: iter})
			return rank.Result{Scores: r.Articles, Stats: r.Stats}, err
		}},
		{core.ScorerPRank, false, false, func(net *hetnet.Network) (rank.Result, error) {
			return rank.PRank(net, pRank)
		}},
	}
	opts := core.DefaultOptions()
	opts.Workers = 2
	opts.Iter = iter
	for name, net := range oracleCorpora(t) {
		for _, o := range oracles {
			want, err := o.run(net)
			if err != nil {
				t.Fatalf("%s %s: oracle: %v", name, o.scorer, err)
			}
			got, err := core.RankScorer(net, o.scorer, nil, opts)
			if err != nil {
				t.Fatalf("%s %s: scorer: %v", name, o.scorer, err)
			}
			switch {
			case o.exact:
				if !slices.Equal(got.Importance, want.Scores) {
					t.Errorf("%s %s: scores differ from the oracle", name, o.scorer)
				}
				continue
			case !want.Stats.Converged || !got.PrestigeStats.Converged:
				t.Errorf("%s %s: converged oracle %v, scorer %v", name, o.scorer, want.Stats.Converged, got.PrestigeStats.Converged)
			}
			if d := sparse.MaxDiff(got.Importance, want.Scores); d > 1e-9 {
				t.Errorf("%s %s: deviates from the oracle by %v", name, o.scorer, d)
			}
			if o.walk && got.PrestigeStats.Iterations > want.Stats.Iterations {
				t.Errorf("%s %s: %d sweeps, oracle %d", name, o.scorer, got.PrestigeStats.Iterations, want.Stats.Iterations)
			}
		}
	}
}

// TestCoRankAuthorsMatchOracle checks the author distribution the
// corank scorer returns alongside the article scores.
func TestCoRankAuthorsMatchOracle(t *testing.T) {
	iter := sparse.IterOptions{Tol: 1e-13, MaxIter: 5000}
	for name, net := range oracleCorpora(t) {
		want, err := rank.CoRank(net, rank.CoRankOptions{Iter: iter})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Iter = iter
		got, err := core.RankScorer(net, core.ScorerCoRank, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.MaxDiff(got.Authors, want.Authors); len(got.Authors) != len(want.Authors) || d > 1e-9 {
			t.Errorf("%s: %d authors deviate from the oracle's %d by %v", name, len(got.Authors), len(want.Authors), d)
		}
	}
}

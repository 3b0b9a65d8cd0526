package core

import (
	"errors"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// genNetwork generates an n-article synthetic corpus and its network.
func genNetwork(t testing.TB, n int) (*corpus.Store, *hetnet.Network) {
	t.Helper()
	c, err := gen.Generate(gen.NewDefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return c.Store, hetnet.Build(c.Store)
}

// growByCitations thaws the store and adds a small citation delta:
// each of the last k articles gains one extra citation into article 0.
func growByCitations(t testing.TB, s *corpus.Store, k int) *corpus.Store {
	t.Helper()
	b := s.Thaw()
	n := b.NumArticles()
	added := 0
	for i := n - 1; i > 0 && added < k; i-- {
		if err := b.AddCitation(corpus.ArticleID(i), 0); err == nil {
			added++
		}
	}
	if added == 0 {
		t.Fatal("no citations added")
	}
	return b.Freeze()
}

// TestWarmStartMatchesCold is the warm-start correctness contract:
// seeding the power iteration with a previous (smaller) solution must
// converge to the same scores as a cold solve on the merged corpus.
func TestWarmStartMatchesCold(t *testing.T) {
	store, net := genNetwork(t, 400)
	opts := DefaultOptions()
	opts.Iter = sparse.IterOptions{Tol: 1e-12, MaxIter: 500}
	prev, err := Rank(net, opts)
	if err != nil {
		t.Fatal(err)
	}

	grown := growByCitations(t, store, 25)
	grownNet := hetnet.Grow(net, grown)

	cold, err := Rank(grownNet, opts)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := opts
	warmOpts.InitialScores = FromScores(prev, grown.NumArticles())
	warm, err := Rank(grownNet, warmOpts)
	if err != nil {
		t.Fatal(err)
	}

	if !warm.PrestigeStats.Converged || !warm.HeteroStats.Converged {
		t.Fatalf("warm solve did not converge: %+v %+v", warm.PrestigeStats, warm.HeteroStats)
	}
	for name, pair := range map[string][2][]float64{
		"Importance": {warm.Importance, cold.Importance},
		"Prestige":   {warm.Prestige, cold.Prestige},
		"Popularity": {warm.Popularity, cold.Popularity},
		"Hetero":     {warm.Hetero, cold.Hetero},
	} {
		if d := sparse.MaxDiff(pair[0], pair[1]); d > 1e-8 {
			t.Errorf("%s: warm deviates from cold by %v", name, d)
		}
	}
}

// TestWarmStartSavesIterations shows the point of warm starting: on a
// small delta the seeded solve needs strictly fewer sweeps than a
// cold one. Since the sweeps became Gauss–Seidel the cold solve is
// itself a dozen sweeps (the acyclic prestige walk takes two from any
// start), so what a seed can save is a hetero sweep or two; the cold
// count is pinned so that a regression there is not mistaken for a
// better warm start.
func TestWarmStartSavesIterations(t *testing.T) {
	store, net := genNetwork(t, 400)
	opts := DefaultOptions()
	prev, err := Rank(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	grown := growByCitations(t, store, 10)
	grownNet := hetnet.Grow(net, grown)

	cold, err := Rank(grownNet, opts)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := opts
	warmOpts.InitialScores = FromScores(prev, grown.NumArticles())
	warm, err := Rank(grownNet, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	coldIters := cold.PrestigeStats.Iterations + cold.HeteroStats.Iterations
	warmIters := warm.PrestigeStats.Iterations + warm.HeteroStats.Iterations
	if warmIters >= coldIters {
		t.Errorf("warm start saved nothing: warm %d iters, cold %d", warmIters, coldIters)
	}
	if cold.PrestigeStats.Iterations > 2 || coldIters > 15 {
		t.Errorf("cold solve took %d prestige and %d hetero sweeps, want <= 2 and <= 15 together",
			cold.PrestigeStats.Iterations, cold.HeteroStats.Iterations)
	}
	t.Logf("iterations: cold %d (prestige %d + hetero %d), warm %d (prestige %d + hetero %d)",
		coldIters, cold.PrestigeStats.Iterations, cold.HeteroStats.Iterations,
		warmIters, warm.PrestigeStats.Iterations, warm.HeteroStats.Iterations)
}

// TestInitialScoresValidation covers the failure modes of an explicit
// seed: wrong length errors, zero mass degrades to a cold start.
func TestInitialScoresValidation(t *testing.T) {
	net := fixture(t)
	opts := DefaultOptions()
	opts.InitialScores = &InitialScores{Prestige: []float64{1, 2}}
	if _, err := Rank(net, opts); !errors.Is(err, ErrBadOptions) {
		t.Errorf("short prestige seed: err = %v, want ErrBadOptions", err)
	}
	opts.InitialScores = &InitialScores{Hetero: []float64{1, 2}}
	if _, err := Rank(net, opts); !errors.Is(err, ErrBadOptions) {
		t.Errorf("short hetero seed: err = %v, want ErrBadOptions", err)
	}

	cold, err := Rank(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]float64, net.NumArticles())
	opts.InitialScores = &InitialScores{Prestige: zeros, Hetero: zeros}
	warm, err := Rank(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxDiff(cold.Importance, warm.Importance); d > 1e-12 {
		t.Errorf("zero-mass seed deviates from cold by %v", d)
	}

	if FromScores(nil, 3) != nil {
		t.Error("FromScores(nil) != nil")
	}
	init := FromScores(cold, net.NumArticles()+2)
	if len(init.Prestige) != net.NumArticles()+2 || len(init.Hetero) != net.NumArticles()+2 {
		t.Errorf("FromScores lengths = %d/%d", len(init.Prestige), len(init.Hetero))
	}
}

// BenchmarkWarmStartDelta measures the re-solve cost after a small
// citation delta, cold versus warm-seeded from the previous solution.
func BenchmarkWarmStartDelta(b *testing.B) {
	store, net := genNetwork(b, 2000)
	opts := DefaultOptions()
	opts.Workers = 1
	prev, err := Rank(net, opts)
	if err != nil {
		b.Fatal(err)
	}
	grown := growByCitations(b, store, 20)
	grownNet := hetnet.Grow(net, grown)
	warmOpts := opts
	warmOpts.InitialScores = FromScores(prev, grown.NumArticles())

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Rank(grownNet, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Rank(grownNet, warmOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

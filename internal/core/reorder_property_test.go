package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// The tests in this file pin the invariant of the solver order:
// running the solvers over the permuted operator and unmapping at the
// boundary is indistinguishable (to roundoff) from solving in original
// article order. The unpermuted reference is obtained with
// Store.WithoutSolverPermutation, which shares all corpus columns but
// drops the solver permutation.

// genPermutedNetwork generates a synthetic corpus, shuffles its
// article ids against the years so that its freeze-time permutation is
// non-identity, and returns it with the identity-order reference
// network over the same columns.
func genPermutedNetwork(t testing.TB, n int, seed int64) (*corpus.Store, *hetnet.Network, *hetnet.Network) {
	t.Helper()
	cfg := gen.NewDefaultConfig(n)
	cfg.Seed = seed
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := shuffledStore(t, c.Store, seed)
	if store.SolverPermutation() == nil {
		t.Fatalf("seed %d: shuffled corpus froze to the identity permutation", seed)
	}
	return store, hetnet.Build(store), hetnet.Build(store.WithoutSolverPermutation())
}

// shuffledStore rebuilds s with its article ids dealt out at random and
// everything else equal: the same keys, metadata, authors, venues and
// citations. Ids then disagree with publication years, so the result
// freezes to a non-identity solver permutation, which a generated
// corpus, in chronological id order, does not. The 1e-12 bounds below
// hold for these seeds, not for every shuffle: Importance is
// percentile-normalised, and a tie that one order splits by an ulp
// moves a percentile by 1/n.
func shuffledStore(t testing.TB, s *corpus.Store, seed int64) *corpus.Store {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	b := corpus.NewBuilder()
	for i := 0; i < s.NumAuthors(); i++ {
		a := s.Author(corpus.AuthorID(i))
		_, err := b.InternAuthor(a.Key, a.Name)
		must(err)
	}
	for i := 0; i < s.NumVenues(); i++ {
		v := s.Venue(corpus.VenueID(i))
		_, err := b.InternVenue(v.Key, v.Name)
		must(err)
	}
	newID := rand.New(rand.NewSource(seed)).Perm(s.NumArticles())
	oldAt := make([]corpus.ArticleID, len(newID))
	for old, id := range newID {
		oldAt[id] = corpus.ArticleID(old)
	}
	for _, old := range oldAt {
		a := s.Article(old)
		_, err := b.AddArticle(corpus.ArticleMeta{Key: a.Key, Title: a.Title, Year: a.Year, Venue: a.Venue, Authors: a.Authors})
		must(err)
	}
	for id, old := range oldAt {
		for _, ref := range s.Article(old).Refs {
			must(b.AddCitation(corpus.ArticleID(id), corpus.ArticleID(newID[ref])))
		}
	}
	return b.Freeze()
}

// TestRankReorderInvariant compares full QISA-Rank — prestige with
// extrapolation, popularity, the hetero blend, fade and ensemble —
// between permuted and identity-order solves of the same corpus.
func TestRankReorderInvariant(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		_, permNet, baseNet := genPermutedNetwork(t, 500, seed)
		opts := DefaultOptions()
		opts.Workers = 1
		opts.Iter = sparse.IterOptions{Tol: 1e-13, MaxIter: 2000}
		got, err := Rank(permNet, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Rank(baseNet, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string][2][]float64{
			"Importance":  {got.Importance, want.Importance},
			"Prestige":    {got.Prestige, want.Prestige},
			"RawPrestige": {got.RawPrestige, want.RawPrestige},
			"Popularity":  {got.Popularity, want.Popularity},
			"Hetero":      {got.Hetero, want.Hetero},
		} {
			if d := sparse.MaxDiff(pair[0], pair[1]); d > 1e-12 {
				t.Errorf("seed %d: %s deviates from identity-order solve by %v", seed, name, d)
			}
		}
	}
}

// TestPrestigeReorderInvariant isolates the prestige stage (the walk
// the solver order primarily exists for), with extrapolation both off
// and at the default cadence.
func TestPrestigeReorderInvariant(t *testing.T) {
	_, permNet, baseNet := genPermutedNetwork(t, 800, 4)
	for _, aitken := range []int{-1, 0} {
		opts := DefaultOptions()
		opts.Workers = 1
		opts.AitkenEvery = aitken
		opts.Iter = sparse.IterOptions{Tol: 1e-13, MaxIter: 2000}
		got, err := Rank(permNet, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Rank(baseNet, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.MaxDiff(got.RawPrestige, want.RawPrestige); d > 1e-12 {
			t.Errorf("aitken=%d: raw prestige deviates by %v", aitken, d)
		}
	}
}

// growBackdated thaws the store and appends a few articles dated
// before the rest of the corpus, each cited from across it, so the
// re-frozen corpus sorts them to the front of the solver order and
// every other row moves.
func growBackdated(t testing.TB, s *corpus.Store) *corpus.Store {
	t.Helper()
	b := s.Thaw()
	n := b.NumArticles()
	first, _ := s.YearRange()
	for k := 0; k < 5; k++ {
		id, err := b.AddArticle(corpus.ArticleMeta{Key: fmt.Sprintf("backdated-%d", k), Year: first - 1, Venue: corpus.NoVenue})
		if err != nil {
			t.Fatal(err)
		}
		for i := k; i < n; i += 7 {
			if err := b.AddCitation(corpus.ArticleID(i), id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Freeze()
}

// TestWarmStartAcrossPermutationChange is the warm-start leg of the
// invariant: scores solved under one permutation seed a solve under a
// different permutation (the delta back-dates articles), and the
// warm-started result must match a cold solve on the grown corpus.
func TestWarmStartAcrossPermutationChange(t *testing.T) {
	store, permNet, _ := genPermutedNetwork(t, 500, 5)
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Iter = sparse.IterOptions{Tol: 1e-13, MaxIter: 2000}
	prev, err := Rank(permNet, opts)
	if err != nil {
		t.Fatal(err)
	}

	grown := growBackdated(t, store)
	if slices.Equal(grown.SolverPermutation().Fwd()[:store.NumArticles()], store.SolverPermutation().Fwd()) {
		t.Fatal("delta did not change the permutation; the test is vacuous")
	}
	grownNet := hetnet.Grow(permNet, grown)

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
		"Hetero":     {warm.Hetero, cold.Hetero},
	} {
		if d := sparse.MaxDiff(pair[0], pair[1]); d > 1e-10 {
			t.Errorf("%s: warm deviates from cold by %v", name, d)
		}
	}
}

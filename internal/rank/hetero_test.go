package rank

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scholarrank/internal/corpus"
	"scholarrank/internal/graph"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// buildHetFixture creates 6 articles over 2000–2010, two authors and
// one venue. Articles 0–2 are by author "star" at the venue; 3–5 are
// authorless. Citations: everyone cites article 0; article 5 is new
// and uncited.
func buildHetFixture(t testing.TB) *hetnet.Network {
	t.Helper()
	s := corpus.NewBuilder()
	star, _ := s.InternAuthor("star", "Star Author")
	other, _ := s.InternAuthor("other", "Other")
	v, _ := s.InternVenue("v", "Venue")
	add := func(key string, year int, venue corpus.VenueID, authors ...corpus.AuthorID) corpus.ArticleID {
		id, err := s.AddArticle(corpus.ArticleMeta{Key: key, Year: year, Venue: venue, Authors: authors})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	p0 := add("p0", 2000, v, star)
	p1 := add("p1", 2002, v, star, other)
	p2 := add("p2", 2004, v, star)
	p3 := add("p3", 2006, corpus.NoVenue)
	p4 := add("p4", 2008, corpus.NoVenue)
	p5 := add("p5", 2010, corpus.NoVenue)
	for _, c := range [][2]corpus.ArticleID{
		{p1, p0}, {p2, p0}, {p3, p0}, {p4, p0}, {p4, p2}, {p3, p1},
	} {
		if err := s.AddCitation(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	_ = p5
	return hetnet.Build(s.Freeze())
}

func TestFutureRankConvergesAndSumsToOne(t *testing.T) {
	net := buildHetFixture(t)
	r, err := FutureRank(net, DefaultFutureRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.Converged {
		t.Errorf("not converged: %+v", r.Stats)
	}
	if !almostEq(sparse.Sum(r.Scores), 1, 1e-9) {
		t.Errorf("sum = %v", sparse.Sum(r.Scores))
	}
	for i, s := range r.Scores {
		if s < 0 {
			t.Errorf("negative score[%d] = %v", i, s)
		}
	}
}

func TestFutureRankRecencyHelpsNewArticle(t *testing.T) {
	net := buildHetFixture(t)
	noTime := FutureRankOptions{Alpha: 0.5, Beta: 0.2, Gamma: 0, Rho: 0.3}
	withTime := FutureRankOptions{Alpha: 0.5, Beta: 0.2, Gamma: 0.2, Rho: 0.3}
	a, err := FutureRank(net, noTime)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FutureRank(net, withTime)
	if err != nil {
		t.Fatal(err)
	}
	// Article 5 is the newest and uncited; the recency term must lift it.
	if b.Scores[5] <= a.Scores[5] {
		t.Errorf("recency term did not help new article: %v vs %v", b.Scores[5], a.Scores[5])
	}
}

func TestFutureRankValidation(t *testing.T) {
	net := buildHetFixture(t)
	if _, err := FutureRank(net, FutureRankOptions{Alpha: -0.1}); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative alpha: %v", err)
	}
	if _, err := FutureRank(net, FutureRankOptions{Alpha: 0.6, Beta: 0.5}); !errors.Is(err, ErrBadParam) {
		t.Errorf("weights > 1: %v", err)
	}
	if _, err := FutureRank(net, FutureRankOptions{Rho: math.Inf(1)}); err == nil {
		t.Error("inf rho accepted")
	}
}

func TestFutureRankEmptyNetwork(t *testing.T) {
	net := hetnet.Build(corpus.NewBuilder().Freeze())
	r, err := FutureRank(net, DefaultFutureRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scores) != 0 || !r.Stats.Converged {
		t.Errorf("empty: %+v", r)
	}
}

func TestPRankConvergesAndSumsToOne(t *testing.T) {
	net := buildHetFixture(t)
	r, err := PRank(net, PRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.Converged {
		t.Errorf("not converged: %+v", r.Stats)
	}
	if !almostEq(sparse.Sum(r.Scores), 1, 1e-9) {
		t.Errorf("sum = %v", sparse.Sum(r.Scores))
	}
}

func TestPRankAuthorLayerLiftsCoauthoredArticle(t *testing.T) {
	net := buildHetFixture(t)
	// With a pure citation walk (paper weight 1) article 5 gets only
	// teleport mass. Adding the author/venue layers must not change
	// that (it has neither), but must lift articles 1 and 2, which
	// share the star author with the heavily cited article 0.
	pure, err := PRank(net, PRankOptions{PaperWeight: 1, AuthorWeight: 0, VenueWeight: 0})
	if err != nil {
		t.Fatal(err)
	}
	het, err := PRank(net, PRankOptions{PaperWeight: 0.5, AuthorWeight: 0.4, VenueWeight: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	relPure := pure.Scores[2] / pure.Scores[4]
	relHet := het.Scores[2] / het.Scores[4]
	if relHet <= relPure {
		t.Errorf("author layer did not lift star-authored article: %v vs %v", relHet, relPure)
	}
}

func TestPRankValidation(t *testing.T) {
	net := buildHetFixture(t)
	if _, err := PRank(net, PRankOptions{PaperWeight: 0.5, AuthorWeight: 0.2, VenueWeight: 0.2}); !errors.Is(err, ErrBadParam) {
		t.Errorf("weights != 1: %v", err)
	}
	if _, err := PRank(net, PRankOptions{PaperWeight: -0.2, AuthorWeight: 0.6, VenueWeight: 0.6}); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative weight: %v", err)
	}
	if _, err := PRank(net, PRankOptions{PaperWeight: 1, Damping: 1.2}); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad damping: %v", err)
	}
}

func TestPRankEmptyNetwork(t *testing.T) {
	net := hetnet.Build(corpus.NewBuilder().Freeze())
	r, err := PRank(net, PRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scores) != 0 {
		t.Errorf("empty: %+v", r)
	}
}

// Property: PageRank on random graphs is a probability distribution.
func TestQuickPageRankIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
		r, err := PageRank(b.Build(), PageRankOptions{})
		if err != nil {
			return false
		}
		if !almostEq(sparse.Sum(r.Scores), 1, 1e-6) {
			return false
		}
		for _, s := range r.Scores {
			if s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: adding a citation to an article never lowers its PageRank
// relative to an otherwise identical graph (monotonicity on the
// receiving end, checked on star graphs to keep the oracle simple).
func TestPageRankMoreCitationsMoreScore(t *testing.T) {
	mk := func(extra bool) *graph.Graph {
		b := graph.NewBuilder(6)
		_ = b.AddEdge(1, 0)
		_ = b.AddEdge(2, 0)
		_ = b.AddEdge(3, 5)
		if extra {
			_ = b.AddEdge(4, 0)
		}
		return b.Build()
	}
	base, err := PageRank(mk(false), PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	more, err := PageRank(mk(true), PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if more.Scores[0] <= base.Scores[0] {
		t.Errorf("extra citation lowered score: %v vs %v", more.Scores[0], base.Scores[0])
	}
}

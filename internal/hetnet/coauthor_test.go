package hetnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
)

// pairWalk is the co-authorship walk built by the literal pair loop
// over each article's author list: every ordered pair of distinct
// positions adds 1 to the weight of the edge between their authors,
// and an author's mass moves along its edges in proportion to weight.
// It returns Cᵀx and the mass x puts on authors with no edge.
func pairWalk(n *Network, x []float64) (product []float64, dangling float64) {
	nA := n.NumAuthors()
	w := make([][]float64, nA) // w[a][b]: weight of a→b
	for a := range w {
		w[a] = make([]float64, nA)
	}
	for p := 0; p < n.NumArticles(); p++ {
		authors := n.ArticleAuthors(corpus.ArticleID(p))
		for i := range authors {
			for j := range authors {
				if i != j {
					w[authors[i]][authors[j]]++
				}
			}
		}
	}
	product = make([]float64, nA)
	for a := range w {
		var out float64
		for _, wb := range w[a] {
			out += wb
		}
		if out == 0 {
			dangling += x[a]
			continue
		}
		for b, wb := range w[a] {
			product[b] += x[a] * wb / out
		}
	}
	return product, dangling
}

// coauthorProduct is the view's co-authorship walk applied to x.
func coauthorProduct(n *Network, x []float64) (product []float64, dangling float64) {
	c := n.SolverView().Coauthorship()
	product = make([]float64, n.NumAuthors())
	c.MulVec(nil, product, x)
	return product, c.DanglingMass(x)
}

func TestCoauthorGraph(t *testing.T) {
	s := corpus.NewBuilder()
	a, _ := s.InternAuthor("a", "A")
	b, _ := s.InternAuthor("b", "B")
	c, _ := s.InternAuthor("c", "C")
	// a+b share two articles; b+c share one; c also writes alone.
	add := func(key string, authors ...corpus.AuthorID) {
		if _, err := s.AddArticle(corpus.ArticleMeta{Key: key, Year: 2000, Venue: corpus.NoVenue, Authors: authors}); err != nil {
			t.Fatal(err)
		}
	}
	add("p0", a, b)
	add("p1", a, b)
	add("p2", b, c)
	add("p3", c)
	net := Build(s.Freeze())
	// W(a) = 2, W(b) = 3 (two slots with a, one with c), W(c) = 1: a
	// sends all its mass to b, b sends 2/3 to a and 1/3 to c, c sends
	// all of it to b — and nothing goes a→c.
	got, dangling := coauthorProduct(net, []float64{0.6, 0.3, 0.1})
	want := []float64{0.3 * 2 / 3, 0.6 + 0.1, 0.3 / 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Errorf("product[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if dangling != 0 {
		t.Errorf("dangling mass %v, want 0", dangling)
	}
	// Only a's mass on c's column would be the a–c edge.
	if got, _ := coauthorProduct(net, []float64{1, 0, 0}); got[c] != 0 {
		t.Errorf("a–c edge carries %v", got[c])
	}
}

func TestCoauthorGraphSoloAuthorsOnly(t *testing.T) {
	s := corpus.NewBuilder()
	a, _ := s.InternAuthor("a", "A")
	if _, err := s.AddArticle(corpus.ArticleMeta{Key: "p", Year: 2000, Venue: corpus.NoVenue, Authors: []corpus.AuthorID{a}}); err != nil {
		t.Fatal(err)
	}
	got, dangling := coauthorProduct(Build(s.Freeze()), []float64{1})
	if got[0] != 0 || dangling != 1 {
		t.Errorf("solo corpus: product %v, dangling %v; want no co-author mass, all dangling", got, dangling)
	}
}

// handBuiltCoauthors is a permuted corpus with every shape the walk's
// identity has to survive: an author repeated on one article (written
// into the builder's record, past AddArticle, so it reaches the store's
// columns), a solo-only author, an author with no articles, a
// single-author article and an author-less one.
func handBuiltCoauthors(t *testing.T) *Network {
	t.Helper()
	s := corpus.NewBuilder()
	var au [5]corpus.AuthorID
	for i := range au {
		au[i], _ = s.InternAuthor(string(rune('a'+i)), "")
	}
	add := func(key string, year int, authors ...corpus.AuthorID) corpus.ArticleID {
		id, err := s.AddArticle(corpus.ArticleMeta{Key: key, Year: year, Venue: corpus.NoVenue, Authors: authors})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	rep := add("repeat", 2010, au[0], au[1])
	s.Article(rep).Authors = append(s.Article(rep).Authors, au[0]) // a, b, a
	add("trio", 2001, au[0], au[1], au[2])
	add("pair", 2005, au[1], au[2])
	add("solo-d", 1999, au[3]) // d writes only alone
	add("solo-c", 2003, au[2]) // a single-author article by a co-author
	add("none", 2002)          // no authors; e never writes anything
	net := Build(s.Freeze())
	if net.Store().SolverPermutation() == nil {
		t.Fatal("fixture produced an identity permutation")
	}
	if got := net.ArticleAuthors(rep); len(got) != 3 {
		t.Fatalf("repeated author did not reach the store: %v", got)
	}
	if _, dangling := pairWalk(net, []float64{0, 0, 0, 1, 1}); dangling != 2 {
		t.Fatalf("authors d and e should be dangling, dangling mass %v", dangling)
	}
	return net
}

// TestCoauthorshipMatchesPairLoop compares the view's co-authorship
// product and dangling mass with the literal pair loop, on three
// generated corpora and the hand-built one.
func TestCoauthorshipMatchesPairLoop(t *testing.T) {
	nets := map[string]*Network{"hand-built": handBuiltCoauthors(t)}
	for _, seed := range []int64{1, 2, 3} {
		cfg := gen.NewDefaultConfig(2000)
		cfg.Seed = seed
		c, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("seed %d", seed)] = Build(c.Store)
	}
	for name, net := range nets {
		rng := rand.New(rand.NewSource(5))
		x := make([]float64, net.NumAuthors())
		for i := range x {
			x[i] = rng.Float64()
		}
		got, gotDang := coauthorProduct(net, x)
		want, wantDang := pairWalk(net, x)
		var scale float64
		for _, w := range want {
			scale = max(scale, math.Abs(w))
		}
		for a := range want {
			if d := math.Abs(got[a] - want[a]); d > 1e-12*scale {
				t.Errorf("%s: author %d: %v, want %v", name, a, got[a], want[a])
			}
		}
		if d := math.Abs(gotDang - wantDang); d > 1e-12*max(wantDang, 1e-300) {
			t.Errorf("%s: dangling mass %v, want %v", name, gotDang, wantDang)
		}
	}
}

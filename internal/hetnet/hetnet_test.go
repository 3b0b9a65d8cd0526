package hetnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/sparse"
)

// buildTiny mirrors the corpus package fixture:
//
//	p0 (2000, venue v, authors a,b), p1 (2005, author a), p2 (2010, no
//	venue/authors); p1->p0, p2->p1, p2->p0.
func buildTiny(t testing.TB) *Network {
	t.Helper()
	s := corpus.NewBuilder()
	a, _ := s.InternAuthor("a", "Alice")
	b, _ := s.InternAuthor("b", "Bob")
	v, _ := s.InternVenue("v", "ICDE")
	p0, err := s.AddArticle(corpus.ArticleMeta{Key: "p0", Year: 2000, Venue: v, Authors: []corpus.AuthorID{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s.AddArticle(corpus.ArticleMeta{Key: "p1", Year: 2005, Venue: corpus.NoVenue, Authors: []corpus.AuthorID{a}})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.AddArticle(corpus.ArticleMeta{Key: "p2", Year: 2010, Venue: corpus.NoVenue})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]corpus.ArticleID{{p1, p0}, {p2, p1}, {p2, p0}} {
		if err := s.AddCitation(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	return Build(s.Freeze())
}

func TestBuildBasics(t *testing.T) {
	n := buildTiny(t)
	if n.NumArticles() != 3 || n.NumAuthors() != 2 || n.NumVenues() != 1 {
		t.Fatalf("counts %d/%d/%d", n.NumArticles(), n.NumAuthors(), n.NumVenues())
	}
	if n.Now != 2010 {
		t.Errorf("Now = %v", n.Now)
	}
	if n.Citations.NumEdges() != 3 {
		t.Errorf("citation edges = %d", n.Citations.NumEdges())
	}
	if n.Years[1] != 2005 {
		t.Errorf("Years[1] = %v", n.Years[1])
	}
}

func TestAuthorLayer(t *testing.T) {
	n := buildTiny(t)
	// Author a (id 0) wrote p0 and p1; b (id 1) wrote p0 only.
	arts := n.AuthorArticles(0)
	if len(arts) != 2 {
		t.Fatalf("author a articles = %v", arts)
	}
	if len(n.AuthorArticles(1)) != 1 {
		t.Errorf("author b articles = %v", n.AuthorArticles(1))
	}
	if got := n.ArticleAuthors(0); len(got) != 2 {
		t.Errorf("p0 authors = %v", got)
	}
	if got := n.ArticleAuthors(2); len(got) != 0 {
		t.Errorf("p2 authors = %v", got)
	}
}

func TestVenueLayer(t *testing.T) {
	n := buildTiny(t)
	if got := n.VenueArticles(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("venue articles = %v", got)
	}
	if v := n.ArticleVenue(0); v != 0 {
		t.Errorf("p0 venue = %d", v)
	}
	if v := n.ArticleVenue(2); v != corpus.NoVenue {
		t.Errorf("p2 venue = %d", v)
	}
}

func TestAge(t *testing.T) {
	n := buildTiny(t)
	if a := n.Age(0); a != 10 {
		t.Errorf("Age(p0) = %v", a)
	}
	if a := n.Age(2); a != 0 {
		t.Errorf("Age(p2) = %v", a)
	}
}

func TestGatherSpreadAuthorsConservesMass(t *testing.T) {
	n := buildTiny(t)
	v := n.SolverView()
	p := []float64{0.5, 0.3, 0.2}
	authors := make([]float64, n.NumAuthors())
	leaked := v.GatherArticlesToAuthorsPar(nil, authors, p)
	// p2 has no authors -> its 0.2 leaks.
	if math.Abs(leaked-0.2) > 1e-15 {
		t.Errorf("leaked = %v, want 0.2", leaked)
	}
	var total float64
	for _, a := range authors {
		total += a
	}
	if math.Abs(total+leaked-1) > 1e-12 {
		t.Errorf("author mass %v + leak %v != 1", total, leaked)
	}
	// a gets p0/2 + p1 = 0.25+0.3; b gets 0.25.
	if math.Abs(authors[0]-0.55) > 1e-12 || math.Abs(authors[1]-0.25) > 1e-12 {
		t.Errorf("authors = %v", authors)
	}

	back := make([]float64, 3)
	v.SpreadAuthorsToArticlesPar(nil, back, authors)
	var backTotal float64
	for _, v := range back {
		backTotal += v
	}
	if math.Abs(backTotal-total) > 1e-12 {
		t.Errorf("spread lost mass: %v vs %v", backTotal, total)
	}
	// a splits 0.55 over 2 articles, b puts 0.25 on p0.
	if math.Abs(back[0]-(0.275+0.25)) > 1e-12 {
		t.Errorf("back[0] = %v", back[0])
	}
	if back[2] != 0 {
		t.Errorf("back[2] = %v, want 0", back[2])
	}
}

// TestGatherSpreadVenues gathers article mass onto the venues, scaled
// by each venue's spread share, and spreads it back through the inline
// venue layer a blend sweep reads.
func TestGatherSpreadVenues(t *testing.T) {
	n := buildTiny(t)
	v := n.SolverView()
	p := []float64{0.5, 0.3, 0.2}
	venues := make([]float64, n.NumVenues())
	leaked := v.GatherArticlesToVenuesScaledPar(nil, venues, p)
	if math.Abs(leaked-0.5) > 1e-15 { // p1 and p2 have no venue
		t.Errorf("leaked = %v, want 0.5", leaked)
	}
	if math.Abs(venues[0]-0.5) > 1e-15 { // v has one article: share 1
		t.Errorf("venue score = %v", venues[0])
	}
	layer := v.VenueBlendLayer(venues)
	back := make([]float64, 3)
	for i, vn := range layer.Of {
		if vn >= 0 {
			back[i] = layer.Vec[vn]
		}
	}
	if math.Abs(back[0]-0.5) > 1e-15 || back[1] != 0 {
		t.Errorf("spread = %v", back)
	}
}

func TestEmptyCorpusNetwork(t *testing.T) {
	n := Build(corpus.NewBuilder().Freeze())
	if n.NumArticles() != 0 || n.Now != 0 {
		t.Errorf("empty network: articles=%d now=%v", n.NumArticles(), n.Now)
	}
}

func TestSpreadOverwritesDst(t *testing.T) {
	n := buildTiny(t)
	dst := []float64{9, 9, 9}
	n.SolverView().SpreadAuthorsToArticlesPar(nil, dst, make([]float64, n.NumAuthors()))
	for i, v := range dst {
		if v != 0 {
			t.Errorf("dst[%d] = %v, want 0 (overwrite)", i, v)
		}
	}
}

// buildRandom makes a corpus large enough to get multi-chunk plans:
// ~n articles, n/3 authors (1-4 per article, ~7% none), n/20 venues
// (~10% none).
func buildRandom(t testing.TB, n int, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := corpus.NewBuilder()
	authors := make([]corpus.AuthorID, n/3+1)
	for i := range authors {
		authors[i], _ = s.InternAuthor(fmt.Sprintf("a%d", i), "")
	}
	venues := make([]corpus.VenueID, n/20+1)
	for i := range venues {
		venues[i], _ = s.InternVenue(fmt.Sprintf("v%d", i), "")
	}
	for i := 0; i < n; i++ {
		meta := corpus.ArticleMeta{Key: fmt.Sprintf("p%d", i), Year: 1980 + rng.Intn(40), Venue: corpus.NoVenue}
		if rng.Intn(10) != 0 {
			meta.Venue = venues[rng.Intn(len(venues))]
		}
		for k := rng.Intn(5) - 1; k >= 0; k-- {
			meta.Authors = append(meta.Authors, authors[rng.Intn(len(authors))])
		}
		if _, err := s.AddArticle(meta); err != nil {
			t.Fatal(err)
		}
	}
	return Build(s.Freeze())
}

// TestGatherSpreadPooledMatchesSerial checks the view's pool-parallel
// pull kernels against their serial execution on a corpus big enough
// for a real multi-chunk plan.
func TestGatherSpreadPooledMatchesSerial(t *testing.T) {
	net := buildRandom(t, 30_000, 9)
	v := net.SolverView()
	pool := sparse.NewPool(4)
	rng := rand.New(rand.NewSource(10))
	x := make([]float64, net.NumArticles())
	for i := range x {
		x[i] = rng.Float64()
	}
	same := func(what string, ser, par []float64) {
		t.Helper()
		for i := range ser {
			if ser[i] != par[i] {
				t.Fatalf("%s differs at %d: %v vs %v", what, i, ser[i], par[i])
			}
		}
	}

	aSer := make([]float64, net.NumAuthors())
	aPar := make([]float64, net.NumAuthors())
	leakSer := v.GatherArticlesToAuthorsPar(nil, aSer, x)
	leakPar := v.GatherArticlesToAuthorsPar(pool, aPar, x)
	if leakSer != leakPar {
		t.Errorf("author leak: serial %v parallel %v", leakSer, leakPar)
	}
	same("author gather", aSer, aPar)
	v.GatherArticlesToAuthorsScaledPar(nil, aSer, x)
	v.GatherArticlesToAuthorsScaledPar(pool, aPar, x)
	same("scaled author gather", aSer, aPar)

	pSer := make([]float64, net.NumArticles())
	pPar := make([]float64, net.NumArticles())
	v.SpreadAuthorsToArticlesPar(nil, pSer, aSer)
	v.SpreadAuthorsToArticlesPar(pool, pPar, aSer)
	same("author spread", pSer, pPar)

	vSer := make([]float64, net.NumVenues())
	vPar := make([]float64, net.NumVenues())
	leakSer = v.GatherArticlesToVenuesScaledPar(nil, vSer, x)
	leakPar = v.GatherArticlesToVenuesScaledPar(pool, vPar, x)
	if leakSer != leakPar {
		t.Errorf("venue leak: serial %v parallel %v", leakSer, leakPar)
	}
	same("venue gather", vSer, vPar)

	coSer := make([]float64, net.NumAuthors())
	coPar := make([]float64, net.NumAuthors())
	v.Coauthorship().MulVec(nil, coSer, aPar)
	v.Coauthorship().MulVec(pool, coPar, aPar)
	same("co-authorship walk", coSer, coPar)
}

// TestGrowCitationDelta checks the incremental rebuild path: a delta
// that only adds citations between existing articles must reuse the
// old network's bipartite layers yet expose the new citation edges,
// and the grown network's view must build kernels that agree with a
// from-scratch Build.
func TestGrowCitationDelta(t *testing.T) {
	old := buildTiny(t)
	gb := old.Store().Thaw()
	p0, _ := gb.ArticleByKey("p0")
	p1, _ := gb.ArticleByKey("p1")
	if err := gb.AddCitation(p1, p0); err != nil { // duplicate edge, merges
		t.Fatal(err)
	}
	grown := gb.Freeze()
	n := Grow(old, grown)
	fresh := Build(grown)

	if n.Store() != grown {
		t.Error("grown network not bound to the new store")
	}
	if n.Citations.NumEdges() != fresh.Citations.NumEdges() {
		t.Errorf("citation edges = %d, want %d", n.Citations.NumEdges(), fresh.Citations.NumEdges())
	}
	// Layer reuse: the CSR slices must be shared with the old network.
	if &n.authorArticles[0] != &old.authorArticles[0] || &n.venueArticles[0] != &old.venueArticles[0] {
		t.Error("bipartite layers were rebuilt for a citation-only delta")
	}
	// Kernels agree with a fresh build.
	art := []float64{0.5, 0.3, 0.2}
	gotA := make([]float64, n.NumAuthors())
	wantA := make([]float64, n.NumAuthors())
	leakGot := n.SolverView().GatherArticlesToAuthorsPar(nil, gotA, art)
	leakWant := fresh.SolverView().GatherArticlesToAuthorsPar(nil, wantA, art)
	if leakGot != leakWant {
		t.Errorf("author leak = %v, want %v", leakGot, leakWant)
	}
	for i := range gotA {
		if math.Abs(gotA[i]-wantA[i]) > 1e-15 {
			t.Errorf("author gather[%d] = %v, want %v", i, gotA[i], wantA[i])
		}
	}
	// Old network still serves its pre-delta citation view.
	if old.Citations.NumEdges() != 3 {
		t.Errorf("old network mutated: %d edges", old.Citations.NumEdges())
	}
}

// TestGrowEntityDelta checks that a delta adding an article falls
// back to a full rebuild with correct layers.
func TestGrowEntityDelta(t *testing.T) {
	old := buildTiny(t)
	gb := old.Store().Thaw()
	a, _ := gb.ArticleByKey("p0")
	au, err := gb.InternAuthor("c", "Carol")
	if err != nil {
		t.Fatal(err)
	}
	p3, err := gb.AddArticle(corpus.ArticleMeta{Key: "p3", Year: 2012, Venue: corpus.NoVenue, Authors: []corpus.AuthorID{au}})
	if err != nil {
		t.Fatal(err)
	}
	if err := gb.AddCitation(p3, a); err != nil {
		t.Fatal(err)
	}
	grown := gb.Freeze()
	n := Grow(old, grown)
	if n.NumArticles() != 4 || n.NumAuthors() != 3 {
		t.Fatalf("grown counts %d/%d", n.NumArticles(), n.NumAuthors())
	}
	if n.Now != 2012 {
		t.Errorf("Now = %v, want 2012 after entity rebuild", n.Now)
	}
	if got := n.AuthorArticles(au); len(got) != 1 || got[0] != p3 {
		t.Errorf("AuthorArticles(c) = %v", got)
	}
	if Grow(nil, grown).NumArticles() != 4 {
		t.Error("Grow(nil) did not build")
	}
}

package corpus

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// buildTinyBuilder returns a 3-article corpus builder:
//
//	p0 (2000, venue v, authors a,b) <- p1 (2005, author a) <- p2 (2010)
//	p2 also cites p0.
func buildTinyBuilder(t *testing.T) *Builder {
	t.Helper()
	b := NewBuilder()
	a, err := b.InternAuthor("a", "Alice")
	if err != nil {
		t.Fatal(err)
	}
	bo, err := b.InternAuthor("b", "Bob")
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.InternVenue("v", "ICDE")
	if err != nil {
		t.Fatal(err)
	}
	p0, err := b.AddArticle(ArticleMeta{Key: "p0", Title: "Seminal", Year: 2000, Venue: v, Authors: []AuthorID{a, bo}})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := b.AddArticle(ArticleMeta{Key: "p1", Year: 2005, Venue: NoVenue, Authors: []AuthorID{a}})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.AddArticle(ArticleMeta{Key: "p2", Year: 2010, Venue: NoVenue})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]ArticleID{{p1, p0}, {p2, p1}, {p2, p0}} {
		if err := b.AddCitation(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// buildTiny returns the frozen form of buildTinyBuilder.
func buildTiny(t *testing.T) *Store {
	t.Helper()
	return buildTinyBuilder(t).Freeze()
}

func TestStoreCounts(t *testing.T) {
	s := buildTiny(t)
	if s.NumArticles() != 3 || s.NumAuthors() != 2 || s.NumVenues() != 1 || s.NumCitations() != 3 {
		t.Errorf("counts: articles=%d authors=%d venues=%d citations=%d",
			s.NumArticles(), s.NumAuthors(), s.NumVenues(), s.NumCitations())
	}
}

func TestInternIdempotent(t *testing.T) {
	b := NewBuilder()
	a1, _ := b.InternAuthor("x", "X")
	a2, _ := b.InternAuthor("x", "different name ignored")
	if a1 != a2 {
		t.Errorf("intern returned %d then %d", a1, a2)
	}
	if b.NumAuthors() != 1 {
		t.Errorf("NumAuthors = %d", b.NumAuthors())
	}
	if s := b.Freeze(); s.Author(a1).Name != "X" {
		t.Errorf("name overwritten: %q", s.Author(a1).Name)
	}
}

func TestInternEmptyKey(t *testing.T) {
	b := NewBuilder()
	if _, err := b.InternAuthor("", "n"); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("err = %v", err)
	}
	if _, err := b.InternVenue("", "n"); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("err = %v", err)
	}
}

func TestAddArticleValidation(t *testing.T) {
	b := NewBuilder()
	if _, err := b.AddArticle(ArticleMeta{Key: "", Year: 2000}); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("empty key: %v", err)
	}
	if _, err := b.AddArticle(ArticleMeta{Key: "k", Year: 0}); !errors.Is(err, ErrBadYear) {
		t.Errorf("year 0: %v", err)
	}
	if _, err := b.AddArticle(ArticleMeta{Key: "k", Year: math.MaxInt32 + 1}); !errors.Is(err, ErrBadYear) {
		t.Errorf("year past int32: %v", err)
	}
	if _, err := b.AddArticle(ArticleMeta{Key: "k", Year: 2000, Venue: 5}); !errors.Is(err, ErrBadID) {
		t.Errorf("bad venue: %v", err)
	}
	if _, err := b.AddArticle(ArticleMeta{Key: "k", Year: 2000, Venue: NoVenue, Authors: []AuthorID{9}}); !errors.Is(err, ErrBadID) {
		t.Errorf("bad author: %v", err)
	}
	if _, err := b.AddArticle(ArticleMeta{Key: "k", Year: 2000, Venue: NoVenue}); err != nil {
		t.Errorf("valid article rejected: %v", err)
	}
	if _, err := b.AddArticle(ArticleMeta{Key: "k", Year: 2001, Venue: NoVenue}); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestAddArticleCopiesAuthors(t *testing.T) {
	b := NewBuilder()
	a, _ := b.InternAuthor("a", "A")
	authors := []AuthorID{a}
	id, err := b.AddArticle(ArticleMeta{Key: "k", Year: 2000, Venue: NoVenue, Authors: authors})
	if err != nil {
		t.Fatal(err)
	}
	authors[0] = 99
	if b.Article(id).Authors[0] != a {
		t.Error("AddArticle aliased caller's author slice")
	}
}

func TestAddCitationValidation(t *testing.T) {
	b := buildTinyBuilder(t)
	if err := b.AddCitation(0, 99); !errors.Is(err, ErrBadID) {
		t.Errorf("out of range: %v", err)
	}
	if err := b.AddCitation(-1, 0); !errors.Is(err, ErrBadID) {
		t.Errorf("negative: %v", err)
	}
	if err := b.AddCitation(1, 1); !errors.Is(err, ErrSelfCitation) {
		t.Errorf("self citation: %v", err)
	}
}

func TestLookups(t *testing.T) {
	s := buildTiny(t)
	id, ok := s.ArticleByKey("p1")
	if !ok {
		t.Fatal("p1 not found")
	}
	a := s.Article(id)
	if a.Year != 2005 || len(a.Authors) != 1 {
		t.Errorf("p1 = %+v", a)
	}
	if _, ok := s.ArticleByKey("nope"); ok {
		t.Error("found nonexistent key")
	}
	if s.Venue(0).Name != "ICDE" {
		t.Errorf("venue name = %q", s.Venue(0).Name)
	}
	if s.Key(0) != "p0" || s.Title(0) != "Seminal" || s.Year(2) != 2010 {
		t.Errorf("column accessors: key=%q title=%q year=%d", s.Key(0), s.Title(0), s.Year(2))
	}
	if s.VenueOf(0) != 0 || s.VenueOf(1) != NoVenue {
		t.Errorf("VenueOf = %d, %d", s.VenueOf(0), s.VenueOf(1))
	}
}

func TestEntityLookups(t *testing.T) {
	s := buildTiny(t)
	aid, ok := s.AuthorByKey("b")
	if !ok || s.Author(aid).Name != "Bob" {
		t.Errorf("AuthorByKey(b) = %d, %v", aid, ok)
	}
	if _, ok := s.AuthorByKey("zz"); ok {
		t.Error("found nonexistent author key")
	}
	vid, ok := s.VenueByKey("v")
	if !ok || s.Venue(vid).Name != "ICDE" {
		t.Errorf("VenueByKey(v) = %d, %v", vid, ok)
	}
	if _, ok := s.VenueByKey("zz"); ok {
		t.Error("found nonexistent venue key")
	}
	// The lazy maps must survive the Thaw→Freeze round trip on the new
	// store as well.
	s2 := s.Thaw().Freeze()
	if aid2, ok := s2.AuthorByKey("a"); !ok || s2.Author(aid2).Name != "Alice" {
		t.Errorf("AuthorByKey after Thaw/Freeze = %d, %v", aid2, ok)
	}
}

func TestYearsAndRange(t *testing.T) {
	s := buildTiny(t)
	ys := s.Years()
	if len(ys) != 3 || ys[0] != 2000 || ys[2] != 2010 {
		t.Errorf("Years = %v", ys)
	}
	lo, hi := s.YearRange()
	if lo != 2000 || hi != 2010 {
		t.Errorf("YearRange = %d..%d", lo, hi)
	}
	empty := NewBuilder().Freeze()
	lo, hi = empty.YearRange()
	if lo != 0 || hi != 0 {
		t.Errorf("empty YearRange = %d..%d", lo, hi)
	}
}

func TestCitationGraph(t *testing.T) {
	b := buildTinyBuilder(t)
	g := b.Freeze().CitationGraph()
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("graph n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 1) || !g.HasEdge(2, 0) {
		t.Error("missing citation edges")
	}
	// Duplicate citation collapses.
	if err := b.AddCitation(2, 0); err != nil {
		t.Fatal(err)
	}
	if g2 := b.Freeze().CitationGraph(); g2.NumEdges() != 3 {
		t.Errorf("duplicate not collapsed: m=%d", g2.NumEdges())
	}
}

func TestTemporalViolations(t *testing.T) {
	s := buildTiny(t)
	if v := s.TemporalViolations(); v != 0 {
		t.Errorf("violations = %d, want 0", v)
	}
	// Rebuild with p0 (cited by both) newer than everything.
	b := s.Thaw()
	b.Article(0).Year = 2020
	if v := b.Freeze().TemporalViolations(); v != 2 {
		t.Errorf("violations = %d, want 2", v)
	}
}

func TestVisitArticlesMatchesViews(t *testing.T) {
	s := buildTiny(t)
	var visited int
	s.VisitArticles(func(id ArticleID, a *Article) {
		visited++
		want := s.Article(id)
		if a.Key != want.Key || a.Year != want.Year || len(a.Refs) != len(want.Refs) {
			t.Errorf("visit %d: %+v vs %+v", id, *a, want)
		}
	})
	if visited != s.NumArticles() {
		t.Errorf("visited %d of %d", visited, s.NumArticles())
	}
}

func TestStoreColumnInvariants(t *testing.T) {
	s := buildTiny(t)
	if err := s.validate(); err != nil {
		t.Fatalf("frozen store fails validation: %v", err)
	}
	aOff, aIDs := s.ArticleAuthorsCSR()
	if len(aOff) != s.NumArticles()+1 || int(aOff[len(aOff)-1]) != len(aIDs) {
		t.Errorf("article-author CSR shape: %d offsets, %d ids", len(aOff), len(aIDs))
	}
	if got := s.Authors(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Authors(0) = %v", got)
	}
	uOff, uArts := s.AuthorArticlesCSR()
	if len(uOff) != s.NumAuthors()+1 {
		t.Fatalf("author offsets len %d", len(uOff))
	}
	// Author a wrote p0 and p1, in ascending article order.
	if row := uArts[uOff[0]:uOff[1]]; len(row) != 2 || row[0] != 0 || row[1] != 1 {
		t.Errorf("author a articles = %v", row)
	}
	vOff, vArts := s.VenueArticlesCSR()
	if row := vArts[vOff[0]:vOff[1]]; len(row) != 1 || row[0] != 0 {
		t.Errorf("venue v articles = %v", row)
	}
	if s.Bytes() <= 0 {
		t.Errorf("Bytes = %d", s.Bytes())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := buildTiny(t)
	var sb strings.Builder
	if err := WriteJSONL(&sb, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(strings.NewReader(sb.String()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCorpus(t, s, got)
}

func TestTSVRoundTrip(t *testing.T) {
	s := buildTiny(t)
	var sb strings.Builder
	if err := WriteTSV(&sb, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(strings.NewReader(sb.String()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCorpus(t, s, got)
}

// assertSameCorpus compares structure (keys, years, venue/author keys,
// citation sets) between two stores.
func assertSameCorpus(t *testing.T, want, got *Store) {
	t.Helper()
	if got.NumArticles() != want.NumArticles() {
		t.Fatalf("articles: %d vs %d", got.NumArticles(), want.NumArticles())
	}
	if got.NumCitations() != want.NumCitations() {
		t.Errorf("citations: %d vs %d", got.NumCitations(), want.NumCitations())
	}
	want.VisitArticles(func(id ArticleID, wa *Article) {
		gid, ok := got.ArticleByKey(wa.Key)
		if !ok {
			t.Errorf("missing article %q", wa.Key)
			return
		}
		ga := got.Article(gid)
		if ga.Year != wa.Year {
			t.Errorf("%q year %d vs %d", wa.Key, ga.Year, wa.Year)
		}
		if (ga.Venue == NoVenue) != (wa.Venue == NoVenue) {
			t.Errorf("%q venue presence differs", wa.Key)
		} else if wa.Venue != NoVenue && got.Venue(ga.Venue).Key != want.Venue(wa.Venue).Key {
			t.Errorf("%q venue key differs", wa.Key)
		}
		if len(ga.Authors) != len(wa.Authors) {
			t.Errorf("%q author count %d vs %d", wa.Key, len(ga.Authors), len(wa.Authors))
		} else {
			for i := range wa.Authors {
				if got.Author(ga.Authors[i]).Key != want.Author(wa.Authors[i]).Key {
					t.Errorf("%q author %d differs", wa.Key, i)
				}
			}
		}
		if len(ga.Refs) != len(wa.Refs) {
			t.Errorf("%q ref count %d vs %d", wa.Key, len(ga.Refs), len(wa.Refs))
		} else {
			for i := range wa.Refs {
				if got.Key(ga.Refs[i]) != want.Key(wa.Refs[i]) {
					t.Errorf("%q ref %d differs", wa.Key, i)
				}
			}
		}
	})
}

func TestReadJSONLForwardRefs(t *testing.T) {
	// p_new appears before the article it cites.
	in := `{"id":"new","year":2010,"refs":["old"]}
{"id":"old","year":2000}`
	s, err := ReadJSONL(strings.NewReader(in), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCitations() != 1 {
		t.Errorf("citations = %d", s.NumCitations())
	}
}

func TestReadJSONLUnknownRef(t *testing.T) {
	in := `{"id":"a","year":2010,"refs":["ghost"]}`
	if _, err := ReadJSONL(strings.NewReader(in), ReadOptions{}); !errors.Is(err, ErrUnknownRef) {
		t.Errorf("strict mode err = %v", err)
	}
	s, err := ReadJSONL(strings.NewReader(in), ReadOptions{AllowDanglingRefs: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCitations() != 0 {
		t.Errorf("lenient mode citations = %d", s.NumCitations())
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json"), ReadOptions{}); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"id":"a","year":-3}`), ReadOptions{}); err == nil {
		t.Error("bad year accepted")
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	in := "\n{\"id\":\"a\",\"year\":2000}\n\n"
	s, err := ReadJSONL(strings.NewReader(in), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumArticles() != 1 {
		t.Errorf("articles = %d", s.NumArticles())
	}
}

func TestTSVTitleSanitised(t *testing.T) {
	b := NewBuilder()
	if _, err := b.AddArticle(ArticleMeta{Key: "k", Title: "bad\ttitle\nhere", Year: 2001, Venue: NoVenue}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTSV(&sb, b.Freeze()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(strings.NewReader(sb.String()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if title := got.Article(0).Title; strings.ContainsAny(title, "\t\n") {
		t.Errorf("title not sanitised: %q", title)
	}
}

func TestTSVBadInput(t *testing.T) {
	if _, err := ReadTSV(strings.NewReader("only\tthree\tfields"), ReadOptions{}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadTSV(strings.NewReader("k\tnotayear\t\t\t\tT"), ReadOptions{}); err == nil {
		t.Error("bad year accepted")
	}
}

func TestTSVUnknownRef(t *testing.T) {
	in := "a\t2010\t\t\tghost\tTitle\n"
	if _, err := ReadTSV(strings.NewReader(in), ReadOptions{}); !errors.Is(err, ErrUnknownRef) {
		t.Errorf("err = %v", err)
	}
	s, err := ReadTSV(strings.NewReader(in), ReadOptions{AllowDanglingRefs: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCitations() != 0 {
		t.Errorf("citations = %d", s.NumCitations())
	}
}

// TestThawIndependent is the Clone-aliasing regression test: a thawed
// builder shares column storage with the frozen store through
// copy-on-append slices, so every mutation path (interning, adding
// articles, appending refs to an existing article) must leave the
// original store byte-for-byte untouched.
func TestThawIndependent(t *testing.T) {
	s := buildTiny(t)
	c := s.Thaw()
	if c.NumArticles() != s.NumArticles() || c.NumCitations() != s.NumCitations() ||
		c.NumAuthors() != s.NumAuthors() || c.NumVenues() != s.NumVenues() {
		t.Fatalf("thaw counts differ: %d/%d/%d/%d", c.NumArticles(), c.NumCitations(), c.NumAuthors(), c.NumVenues())
	}
	// Snapshot the original's aliased rows before mutating the thawed copy.
	p1RefsBefore := append([]ArticleID(nil), s.Refs(1)...)
	p0AuthorsBefore := append([]AuthorID(nil), s.Authors(0)...)

	// Mutate the thawed builder: new author, new article, new citation
	// into p0, and a ref append on an existing article (the classic
	// shared-slice hazard).
	au, err := c.InternAuthor("z", "Zoe")
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := c.ArticleByKey("p0")
	p3, err := c.AddArticle(ArticleMeta{Key: "p3", Year: 2012, Venue: NoVenue, Authors: []AuthorID{au}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddCitation(p3, p0); err != nil {
		t.Fatal(err)
	}
	if err := c.AddCitation(1, 0); err != nil { // grow an existing article's refs
		t.Fatal(err)
	}
	c.Article(2).Year = 1999 // scalar rewrite on an existing article

	if s.NumArticles() != 3 || s.NumAuthors() != 2 || s.NumCitations() != 3 {
		t.Errorf("original mutated: %d articles, %d authors, %d citations",
			s.NumArticles(), s.NumAuthors(), s.NumCitations())
	}
	if got := s.Refs(1); len(got) != len(p1RefsBefore) || got[0] != p1RefsBefore[0] {
		t.Errorf("original refs(p1) = %v, want %v", got, p1RefsBefore)
	}
	if got := s.Authors(0); len(got) != len(p0AuthorsBefore) {
		t.Errorf("original authors(p0) = %v, want %v", got, p0AuthorsBefore)
	}
	if s.Year(2) != 2010 {
		t.Errorf("original year(p2) = %d, want 2010", s.Year(2))
	}
	if _, ok := s.ArticleByKey("p3"); ok {
		t.Error("original sees thawed builder's article")
	}
	if c.NumArticles() != 4 || c.NumCitations() != 5 {
		t.Errorf("thawed counts after mutation: %d/%d", c.NumArticles(), c.NumCitations())
	}
	// Re-freezing the mutated builder must produce a valid store that
	// still leaves the original untouched.
	s2 := c.Freeze()
	if err := s2.validate(); err != nil {
		t.Fatalf("refrozen store invalid: %v", err)
	}
	if s2.NumArticles() != 4 || s.NumArticles() != 3 {
		t.Errorf("articles after refreeze: new=%d old=%d", s2.NumArticles(), s.NumArticles())
	}
	if len(s.Refs(1)) != 1 || len(s2.Refs(1)) != 2 {
		t.Errorf("refs(p1): old=%v new=%v", s.Refs(1), s2.Refs(1))
	}
}

// TestFreezeOrdersChronologically pins the solver order Freeze
// computes: ascending year with ties by id, nil (the identity) for a
// corpus already in that order — also after articles of the latest
// year are appended — for dense and for sparse years.
func TestFreezeOrdersChronologically(t *testing.T) {
	freeze := func(years ...int) *Store {
		t.Helper()
		b := NewBuilder()
		for i, y := range years {
			if _, err := b.AddArticle(ArticleMeta{Key: fmt.Sprintf("p%d", i), Year: y, Venue: NoVenue}); err != nil {
				t.Fatal(err)
			}
		}
		return b.Freeze()
	}
	sorted := freeze(1990, 1990, 1995, 2001, 2001)
	if sorted.SolverPermutation() != nil {
		t.Error("chronological corpus froze to a non-identity permutation")
	}
	b := sorted.Thaw()
	if _, err := b.AddArticle(ArticleMeta{Key: "appended", Year: 2001, Venue: NoVenue}); err != nil {
		t.Fatal(err)
	}
	if b.Freeze().SolverPermutation() != nil {
		t.Error("appending an article of the latest year changed the solver order")
	}
	if freeze().SolverPermutation() != nil {
		t.Error("empty corpus froze to a non-identity permutation")
	}

	for name, years := range map[string][]int{
		"dense years":  {2003, 1999, 2003, 1987, 1999, 2010, 1987, 2003},
		"sparse years": {2003, 5, 2003, 2_000_000_000, 5, 1999},
	} {
		s := freeze(years...)
		p := s.SolverPermutation()
		if p == nil {
			t.Fatalf("%s: unordered corpus froze to the identity", name)
		}
		inv := p.Inv()
		for row := 1; row < len(inv); row++ {
			a, b := inv[row-1], inv[row]
			if ya, yb := years[a], years[b]; ya > yb || (ya == yb && a > b) {
				t.Errorf("%s: solver rows %d,%d hold articles %d (%d) and %d (%d)", name, row-1, row, a, ya, b, yb)
			}
		}
	}
}

package corpus

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"scholarrank/internal/sparse"
)

// Builder is the mutable half of the corpus model: it accumulates
// articles, authors, venues and citations through the interning API
// and freezes them into an immutable columnar Store. Builders are not
// safe for concurrent use.
//
// The construction lifecycle is
//
//	b := corpus.NewBuilder()
//	// ... Intern* / AddArticle / AddCitation ...
//	s := b.Freeze()        // immutable, shareable, rankable
//
// and the live-update lifecycle reopens a frozen store:
//
//	b := s.Thaw()          // cheap copy-on-write reopen
//	// ... apply a delta ...
//	s2 := b.Freeze()       // s keeps serving, s2 swaps in
type Builder struct {
	articles  []Article
	authors   []Author
	venues    []Venue
	citations int

	artKeys, authorKeys, venueKeys builderKeys
}

// NewBuilder returns an empty corpus builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) articleKey(id ArticleID) string { return b.articles[id].Key }
func (b *Builder) authorKey(id AuthorID) string   { return b.authors[id].Key }
func (b *Builder) venueKey(id VenueID) string     { return b.venues[id].Key }

// NumArticles returns the number of articles added so far.
func (b *Builder) NumArticles() int { return len(b.articles) }

// NumAuthors returns the number of interned authors.
func (b *Builder) NumAuthors() int { return len(b.authors) }

// NumVenues returns the number of interned venues.
func (b *Builder) NumVenues() int { return len(b.venues) }

// NumCitations returns the number of citation edges added (before any
// deduplication performed by the citation graph build).
func (b *Builder) NumCitations() int { return b.citations }

// InternAuthor returns the AuthorID for key, creating the author on
// first sight. The name is recorded only on creation.
func (b *Builder) InternAuthor(key, name string) (AuthorID, error) {
	if key == "" {
		return 0, ErrEmptyKey
	}
	if id, ok := b.authorKeys.find(key, b.authorKey); ok {
		return id, nil
	}
	id := AuthorID(len(b.authors))
	b.authors = append(b.authors, Author{Key: key, Name: name})
	b.authorKeys.add(id, b.authorKey)
	return id, nil
}

// InternVenue returns the VenueID for key, creating the venue on
// first sight.
func (b *Builder) InternVenue(key, name string) (VenueID, error) {
	if key == "" {
		return 0, ErrEmptyKey
	}
	if id, ok := b.venueKeys.find(key, b.venueKey); ok {
		return id, nil
	}
	id := VenueID(len(b.venues))
	b.venues = append(b.venues, Venue{Key: key, Name: name})
	b.venueKeys.add(id, b.venueKey)
	return id, nil
}

// AddArticle appends an article and returns its dense id. An author
// listed more than once keeps only its first position: authorship is a
// set, and a repeat would give that author a second share of the
// article in every author gather.
func (b *Builder) AddArticle(m ArticleMeta) (ArticleID, error) {
	if m.Key == "" {
		return 0, ErrEmptyKey
	}
	if _, ok := b.ArticleByKey(m.Key); ok {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateKey, m.Key)
	}
	if m.Year <= 0 || m.Year > math.MaxInt32 { // the store keeps years as int32
		return 0, fmt.Errorf("%w: %d for %q", ErrBadYear, m.Year, m.Key)
	}
	if m.Venue != NoVenue && (m.Venue < 0 || int(m.Venue) >= len(b.venues)) {
		return 0, fmt.Errorf("%w: venue %d", ErrBadID, m.Venue)
	}
	for _, a := range m.Authors {
		if a < 0 || int(a) >= len(b.authors) {
			return 0, fmt.Errorf("%w: author %d", ErrBadID, a)
		}
	}
	authors := slices.Clone(m.Authors)
	kept := 0
	for _, a := range authors {
		if !slices.Contains(authors[:kept], a) {
			authors[kept] = a
			kept++
		}
	}
	id := ArticleID(len(b.articles))
	b.articles = append(b.articles, Article{
		Key:     m.Key,
		Title:   m.Title,
		Year:    m.Year,
		Venue:   m.Venue,
		Authors: authors[:kept],
	})
	b.artKeys.add(id, b.articleKey)
	return id, nil
}

// AddCitation records that article from cites article to. Duplicate
// citations are permitted here and merged when the citation graph is
// built.
func (b *Builder) AddCitation(from, to ArticleID) error {
	n := ArticleID(len(b.articles))
	if from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("%w: citation %d->%d with %d articles", ErrBadID, from, to, n)
	}
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfCitation, b.articles[from].Key)
	}
	b.articles[from].Refs = append(b.articles[from].Refs, to)
	b.citations++
	return nil
}

// Article returns the article with the given id. The pointer is into
// Builder-owned storage; callers must not hold it across mutations.
func (b *Builder) Article(id ArticleID) *Article {
	return &b.articles[id]
}

// ArticleByKey looks up an article by its external key.
func (b *Builder) ArticleByKey(key string) (ArticleID, bool) {
	return b.artKeys.find(key, b.articleKey)
}

// Author returns the author record for id.
func (b *Builder) Author(id AuthorID) Author { return b.authors[id] }

// Venue returns the venue record for id.
func (b *Builder) Venue(id VenueID) Venue { return b.venues[id] }

// Refs returns the citation targets recorded for article from,
// including duplicates. The slice aliases Builder-owned storage and
// must not be modified.
func (b *Builder) Refs(from ArticleID) []ArticleID {
	return b.articles[from].Refs
}

// Freeze packs the builder into an immutable columnar Store: one
// string arena for every key, title and name, CSR offset+data columns
// for authorship, venue membership and citations, and dense year and
// venue arrays. Freezing is deterministic — the same build sequence
// always yields byte-identical columns — which is what binds SCORP
// files, snapshot fingerprints and re-ranked clones together.
//
// The builder remains usable after Freeze; the store shares no
// mutable state with it. The store's key indexes come ready built: a
// copy of the thawed store's with the added ids inserted. Ids are
// stable across Freeze (the solver order lives in the permutation),
// so the builder then reads the new store's indexes as if thawed
// from it.
func (b *Builder) Freeze() *Store {
	nArt, nAuth, nVen := len(b.articles), len(b.authors), len(b.venues)
	s := &Store{citations: b.citations}
	s.artKeys.t = b.artKeys.freeze(nArt, b.articleKey)
	s.authorKeys.t = b.authorKeys.freeze(nAuth, b.authorKey)
	s.venueKeys.t = b.venueKeys.freeze(nVen, b.venueKey)

	var total int
	for i := range b.articles {
		total += len(b.articles[i].Key) + len(b.articles[i].Title)
	}
	for i := range b.authors {
		total += len(b.authors[i].Key) + len(b.authors[i].Name)
	}
	for i := range b.venues {
		total += len(b.venues[i].Key) + len(b.venues[i].Name)
	}
	arena := make([]byte, 0, total)
	stringColumn := func(n int, get func(int) string) []int64 {
		off := make([]int64, n+1)
		off[0] = int64(len(arena))
		for i := 0; i < n; i++ {
			arena = append(arena, get(i)...)
			off[i+1] = int64(len(arena))
		}
		return off
	}
	s.artKeyOff = stringColumn(nArt, func(i int) string { return b.articles[i].Key })
	s.artTitleOff = stringColumn(nArt, func(i int) string { return b.articles[i].Title })
	s.authorKeyOff = stringColumn(nAuth, func(i int) string { return b.authors[i].Key })
	s.authorNameOff = stringColumn(nAuth, func(i int) string { return b.authors[i].Name })
	s.venueKeyOff = stringColumn(nVen, func(i int) string { return b.venues[i].Key })
	s.venueNameOff = stringColumn(nVen, func(i int) string { return b.venues[i].Name })
	s.arena = string(arena)

	s.years = make([]int32, nArt)
	s.venueOf = make([]VenueID, nArt)
	var nAuthorship, nRefs int64
	for i := range b.articles {
		a := &b.articles[i]
		s.years[i] = int32(a.Year)
		s.venueOf[i] = a.Venue
		nAuthorship += int64(len(a.Authors))
		nRefs += int64(len(a.Refs))
	}

	s.artAuthorOff = make([]int64, nArt+1)
	s.artAuthors = make([]AuthorID, 0, nAuthorship)
	s.refOff = make([]int64, nArt+1)
	s.refs = make([]ArticleID, 0, nRefs)
	for i := range b.articles {
		a := &b.articles[i]
		s.artAuthors = append(s.artAuthors, a.Authors...)
		s.artAuthorOff[i+1] = int64(len(s.artAuthors))
		s.refs = append(s.refs, a.Refs...)
		s.refOff[i+1] = int64(len(s.refs))
	}

	// Inverse bipartite layers (author→articles, venue→articles) by
	// counting sort, in article order within each row — the layers
	// hetnet aliases instead of re-deriving.
	s.authorArtOff = make([]int64, nAuth+1)
	s.venueArtOff = make([]int64, nVen+1)
	for i := range b.articles {
		a := &b.articles[i]
		for _, au := range a.Authors {
			s.authorArtOff[au+1]++
		}
		if a.Venue != NoVenue {
			s.venueArtOff[a.Venue+1]++
		}
	}
	for i := 0; i < nAuth; i++ {
		s.authorArtOff[i+1] += s.authorArtOff[i]
	}
	for i := 0; i < nVen; i++ {
		s.venueArtOff[i+1] += s.venueArtOff[i]
	}
	s.authorArts = make([]ArticleID, s.authorArtOff[nAuth])
	s.venueArts = make([]ArticleID, s.venueArtOff[nVen])
	aCur := append([]int64(nil), s.authorArtOff[:nAuth]...)
	vCur := append([]int64(nil), s.venueArtOff[:nVen]...)
	for i := range b.articles {
		a := &b.articles[i]
		for _, au := range a.Authors {
			s.authorArts[aCur[au]] = ArticleID(i)
			aCur[au]++
		}
		if a.Venue != NoVenue {
			s.venueArts[vCur[a.Venue]] = ArticleID(i)
			vCur[a.Venue]++
		}
	}

	begin := time.Now()
	s.perm = chronologicalOrder(s.years)
	s.reorderSecs = time.Since(begin).Seconds()
	return s
}

// chronologicalOrder returns the solver permutation of a corpus:
// articles by ascending year, ties by id. Citations point backward in
// time, so in this order the citation operator is (nearly) triangular
// and the solver's top-down Gauss–Seidel sweeps solve it (nearly) in
// one pass (sparse.Transition.GaussSeidel). A corpus already in that order —
// every generated one, and one grown by appending articles of the
// latest year — gets nil, the identity, and solves in place.
func chronologicalOrder(years []int32) *sparse.Permutation {
	if slices.IsSorted(years) {
		return nil
	}
	order := make([]int32, len(years))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(years[a], years[b]) })
	fwd := make([]int32, len(years))
	for pos, i := range order {
		fwd[i] = int32(pos)
	}
	perm, err := sparse.NewPermutation(fwd)
	if err != nil {
		panic("corpus: chronological order is not a bijection: " + err.Error())
	}
	return perm
}

// Package corpus models a scholarly corpus — articles with
// publication years, authors, venues, and the citation relation —
// split into a mutable Builder and an immutable columnar Store.
//
// The Builder holds the classic record-oriented representation
// (articles with per-row slices, plus key indexes for interning) and
// is where all validation lives. Builder.Freeze packs it into a Store:
// one flat string arena for every key, title and name, int64 offset
// columns delimiting each string, CSR offset+data columns for the
// authorship, venue and citation relations, and dense year/venue
// arrays. The Store is safe for any number of concurrent readers and
// is what every downstream layer (hetnet, core, serve) reads —
// hetnet builds its bipartite layers by aliasing the columns instead
// of re-deriving them. Store.Thaw reopens a frozen corpus as a
// Builder for delta ingest (the old deep Clone).
//
// Stores round-trip losslessly through the SCORP binary file format
// (see scorp.go), a direct sectioned dump of the columns that loads
// without parsing any text.
package corpus

import (
	"errors"

	"scholarrank/internal/graph"
	"scholarrank/internal/sparse"
)

// Dense entity indices. They alias int32 so that graph.NodeID and
// ArticleID interconvert without casts at every call site.
type (
	// ArticleID indexes an article within a Store.
	ArticleID = int32
	// AuthorID indexes an author within a Store.
	AuthorID = int32
	// VenueID indexes a venue within a Store.
	VenueID = int32
)

// NoVenue marks an article without a publication venue.
const NoVenue VenueID = -1

// Sentinel errors returned by Builder mutations and file readers.
var (
	ErrDuplicateKey = errors.New("corpus: duplicate article key")
	ErrEmptyKey     = errors.New("corpus: empty key")
	ErrBadYear      = errors.New("corpus: invalid publication year")
	ErrBadID        = errors.New("corpus: id out of range")
	ErrSelfCitation = errors.New("corpus: article cites itself")
)

// Article is one scholarly article. Refs holds the outgoing citations
// (articles this one cites) as dense indices. Views returned by
// Store.Article alias frozen column storage: the Authors and Refs
// slices must be treated as read-only.
type Article struct {
	Key     string
	Title   string
	Year    int
	Venue   VenueID
	Authors []AuthorID
	Refs    []ArticleID
}

// Author is a distinct article author.
type Author struct {
	Key  string
	Name string
}

// Venue is a publication venue (journal or conference).
type Venue struct {
	Key  string
	Name string
}

// ArticleMeta describes an article to add. Venue may be NoVenue;
// Authors may be empty.
type ArticleMeta struct {
	Key     string
	Title   string
	Year    int
	Venue   VenueID
	Authors []AuthorID
}

// Store is an immutable, columnar corpus. All strings live in a
// single arena; each logical string column is a contiguous arena
// range delimited by an (n+1)-element offset array. Relations are CSR
// pairs: an offset array indexed by source id plus a flat target-id
// array. Stores are produced by Builder.Freeze or the file readers;
// the zero value is an empty corpus with no lookup capability.
//
// A Store is safe for concurrent use by any number of readers: the
// only internal mutability is the key→id index of a store loaded from
// SCORP, built on first use under sync.Once (see keyIndex).
type Store struct {
	arena string

	// Article columns: (n+1)-offset string columns and dense arrays.
	artKeyOff   []int64
	artTitleOff []int64
	years       []int32
	venueOf     []VenueID

	// Article→authors and article→references CSR. refs keeps
	// duplicate citations exactly as added, so NumCitations is
	// len(refs); the citation graph merges duplicates into weights.
	artAuthorOff []int64
	artAuthors   []AuthorID
	refOff       []int64
	refs         []ArticleID

	// Author columns and the author→articles CSR (rows in ascending
	// article order, one entry per authorship).
	authorKeyOff  []int64
	authorNameOff []int64
	authorArtOff  []int64
	authorArts    []ArticleID

	// Venue columns and the venue→articles CSR (rows in ascending
	// article order).
	venueKeyOff  []int64
	venueNameOff []int64
	venueArtOff  []int64
	venueArts    []ArticleID

	citations int

	// Solver permutation over article ids: chronological, computed at
	// Freeze (see chronologicalOrder) and persisted through SCORP. A
	// file frozen by an older build keeps the order it stored, which
	// solves to the same fixed point in more sweeps. nil means identity
	// — solvers run in original article order. The permutation never
	// changes what any accessor returns: all columns stay in original
	// id order, and only the solve kernels consume the permuted space.
	perm        *sparse.Permutation
	reorderSecs float64

	// Backing mapping for stores opened via OpenMapped: the columns
	// above alias its bytes, and Close/Retain manage its lifetime. nil
	// for heap-backed stores (built, decoded, or fallen back).
	mm *mapRegion

	// Key→id indexes of the three key columns. Freeze hands a store
	// its indexes ready built, carried over from the generation it was
	// thawed from.
	artKeys, authorKeys, venueKeys storeKeys
}

func colLen(off []int64) int {
	if len(off) == 0 {
		return 0
	}
	return len(off) - 1
}

// NumArticles returns the number of articles.
func (s *Store) NumArticles() int { return len(s.years) }

// NumAuthors returns the number of interned authors.
func (s *Store) NumAuthors() int { return colLen(s.authorKeyOff) }

// NumVenues returns the number of interned venues.
func (s *Store) NumVenues() int { return colLen(s.venueKeyOff) }

// NumCitations returns the number of citation edges added (before any
// deduplication performed by CitationGraph).
func (s *Store) NumCitations() int { return s.citations }

func (s *Store) str(off []int64, i int32) string {
	return s.arena[off[i]:off[i+1]]
}

// Key returns the external key of article id.
func (s *Store) Key(id ArticleID) string { return s.str(s.artKeyOff, id) }

// Title returns the title of article id.
func (s *Store) Title(id ArticleID) string { return s.str(s.artTitleOff, id) }

// Year returns the publication year of article id.
func (s *Store) Year(id ArticleID) int { return int(s.years[id]) }

// VenueOf returns the venue of article id, or NoVenue.
func (s *Store) VenueOf(id ArticleID) VenueID { return s.venueOf[id] }

// Authors returns the author ids of article id. The slice aliases
// frozen column storage (full slice expression, so appending copies)
// and must not be modified in place.
func (s *Store) Authors(id ArticleID) []AuthorID {
	lo, hi := s.artAuthorOff[id], s.artAuthorOff[id+1]
	return s.artAuthors[lo:hi:hi]
}

// Refs returns the citation targets recorded for article from,
// including duplicates. The slice aliases frozen column storage and
// must not be modified in place.
func (s *Store) Refs(from ArticleID) []ArticleID {
	lo, hi := s.refOff[from], s.refOff[from+1]
	return s.refs[lo:hi:hi]
}

// Article materializes the row view for id. The Authors and Refs
// slices alias store columns; treat them as read-only.
func (s *Store) Article(id ArticleID) Article {
	return Article{
		Key:     s.Key(id),
		Title:   s.Title(id),
		Year:    int(s.years[id]),
		Venue:   s.venueOf[id],
		Authors: s.Authors(id),
		Refs:    s.Refs(id),
	}
}

// ArticleByKey looks up an article by its external key. A frozen
// store carries its index from Freeze; one loaded from SCORP builds
// it on first use, which keeps it off the zero-parse load path.
func (s *Store) ArticleByKey(key string) (ArticleID, bool) {
	return s.articleIndex().find(key, s.Key)
}

// AuthorByKey looks up an author by its external key (the query
// subsystem resolves filter parameters through it).
func (s *Store) AuthorByKey(key string) (AuthorID, bool) {
	return s.authorIndex().find(key, s.authorKey)
}

// VenueByKey looks up a venue by its external key.
func (s *Store) VenueByKey(key string) (VenueID, bool) {
	return s.venueIndex().find(key, s.venueKey)
}

func (s *Store) authorKey(id AuthorID) string { return s.str(s.authorKeyOff, id) }
func (s *Store) venueKey(id VenueID) string   { return s.str(s.venueKeyOff, id) }

func (s *Store) articleIndex() *keyIndex { return s.artKeys.get(s.NumArticles(), s.Key) }
func (s *Store) authorIndex() *keyIndex  { return s.authorKeys.get(s.NumAuthors(), s.authorKey) }
func (s *Store) venueIndex() *keyIndex   { return s.venueKeys.get(s.NumVenues(), s.venueKey) }

// Author returns the author record for id.
func (s *Store) Author(id AuthorID) Author {
	return Author{Key: s.str(s.authorKeyOff, id), Name: s.str(s.authorNameOff, id)}
}

// Venue returns the venue record for id.
func (s *Store) Venue(id VenueID) Venue {
	return Venue{Key: s.str(s.venueKeyOff, id), Name: s.str(s.venueNameOff, id)}
}

// Years returns the publication year of every article as float64,
// indexed by ArticleID. The slice is freshly allocated.
func (s *Store) Years() []float64 {
	out := make([]float64, len(s.years))
	for i, y := range s.years {
		out[i] = float64(y)
	}
	return out
}

// YearRange returns the minimum and maximum publication year, or
// (0, 0) for an empty corpus.
func (s *Store) YearRange() (minYear, maxYear int) {
	if len(s.years) == 0 {
		return 0, 0
	}
	mn, mx := s.years[0], s.years[0]
	for _, y := range s.years[1:] {
		if y < mn {
			mn = y
		}
		if y > mx {
			mx = y
		}
	}
	return int(mn), int(mx)
}

// CitationGraph builds the article citation graph: an edge a->b means
// article a cites article b. Duplicate citations collapse to a single
// edge. The refs column is already CSR-shaped, so this skips the
// general edge-list sort that graph.Builder performs.
func (s *Store) CitationGraph() *graph.Graph {
	// Endpoints were validated when the corpus was built or loaded.
	return graph.FromCSRRows(s.NumArticles(), s.refOff, s.refs)
}

// SolverPermutation returns the permutation the solvers should run
// under, or nil when the store carries none (identity).
// Score vectors produced in permuted space map back to article ids
// through its Restore.
func (s *Store) SolverPermutation() *sparse.Permutation { return s.perm }

// ReorderSeconds reports the wall time Freeze spent computing the
// solver permutation (zero for loaded stores, which did not pay it).
func (s *Store) ReorderSeconds() float64 { return s.reorderSecs }

// WithoutSolverPermutation returns a view of the store with the
// solver permutation stripped, sharing every column with the
// receiver. Solvers driven from it run in original article order —
// the A/B handle used by the reorder property tests and benchmarks.
func (s *Store) WithoutSolverPermutation() *Store {
	c := &Store{
		arena:         s.arena,
		artKeyOff:     s.artKeyOff,
		artTitleOff:   s.artTitleOff,
		years:         s.years,
		venueOf:       s.venueOf,
		artAuthorOff:  s.artAuthorOff,
		artAuthors:    s.artAuthors,
		refOff:        s.refOff,
		refs:          s.refs,
		authorKeyOff:  s.authorKeyOff,
		authorNameOff: s.authorNameOff,
		authorArtOff:  s.authorArtOff,
		authorArts:    s.authorArts,
		venueKeyOff:   s.venueKeyOff,
		venueNameOff:  s.venueNameOff,
		venueArtOff:   s.venueArtOff,
		venueArts:     s.venueArts,
		citations:     s.citations,
		// Share the mapping without retaining: the view's lifetime is
		// the receiver's, and only the original handle should Close it.
		mm: s.mm,
	}
	return c
}

// TemporalViolations counts citations whose cited article is newer
// than the citing article — metadata errors in real dumps, bugs in a
// generator. A healthy corpus reports 0.
func (s *Store) TemporalViolations() int {
	var n int
	for i := range s.years {
		y := s.years[i]
		lo, hi := s.refOff[i], s.refOff[i+1]
		for _, ref := range s.refs[lo:hi] {
			if s.years[ref] > y {
				n++
			}
		}
	}
	return n
}

// VisitArticles calls fn for every article in id order. The pointer
// refers to a single reused view struct: it and its slices (which
// alias store columns) are only valid for the duration of the call.
func (s *Store) VisitArticles(fn func(id ArticleID, a *Article)) {
	var view Article
	for i := 0; i < s.NumArticles(); i++ {
		view = s.Article(ArticleID(i))
		fn(ArticleID(i), &view)
	}
}

// Thaw reopens the frozen store as a Builder so a delta can be
// applied and the result re-frozen — the copy-on-write step behind
// atomic generation swaps (this replaces the old deep Clone). The
// builder's per-row slices alias store columns through full slice
// expressions, so the first append to any row reallocates it: the
// frozen store is never written through. The builder reads the
// store's key indexes in place and indexes only the keys it adds.
func (s *Store) Thaw() *Builder {
	nArt, nAuth, nVen := s.NumArticles(), s.NumAuthors(), s.NumVenues()
	b := &Builder{
		articles:   make([]Article, nArt),
		authors:    make([]Author, nAuth),
		venues:     make([]Venue, nVen),
		citations:  s.citations,
		artKeys:    builderKeys{base: s.articleIndex()},
		authorKeys: builderKeys{base: s.authorIndex()},
		venueKeys:  builderKeys{base: s.venueIndex()},
	}
	for i := 0; i < nArt; i++ {
		b.articles[i] = s.Article(ArticleID(i))
	}
	for i := 0; i < nAuth; i++ {
		b.authors[i] = s.Author(AuthorID(i))
	}
	for i := 0; i < nVen; i++ {
		b.venues[i] = s.Venue(VenueID(i))
	}
	return b
}

// Bytes reports the resident size of the store's columns in bytes
// (arena plus offset and id arrays). The key indexes are excluded:
// a frozen store carries them and a loaded one builds them on first
// lookup, so counting them would make the figure depend on the path a
// store came by.
// Serving exposes this as the corpus_bytes gauge.
func (s *Store) Bytes() int64 {
	n := int64(len(s.arena))
	for _, off := range [][]int64{
		s.artKeyOff, s.artTitleOff, s.artAuthorOff, s.refOff,
		s.authorKeyOff, s.authorNameOff, s.authorArtOff,
		s.venueKeyOff, s.venueNameOff, s.venueArtOff,
	} {
		n += 8 * int64(len(off))
	}
	n += 4 * int64(len(s.years))
	n += 4 * int64(len(s.venueOf))
	n += 4 * int64(len(s.artAuthors))
	n += 4 * int64(len(s.refs))
	n += 4 * int64(len(s.authorArts))
	n += 4 * int64(len(s.venueArts))
	n += 8 * int64(s.perm.Len()) // fwd + inv maps
	return n
}

// The column accessors below expose the frozen arrays to layers that
// build directly on them (hetnet aliases these instead of re-walking
// articles). Every returned slice is the store's own storage and is
// read-only by contract.

// YearColumn returns the dense year column (len NumArticles).
func (s *Store) YearColumn() []int32 { return s.years }

// VenueColumn returns the dense article→venue column (NoVenue for
// venue-less articles).
func (s *Store) VenueColumn() []VenueID { return s.venueOf }

// ArticleAuthorsCSR returns the article→authors CSR pair.
func (s *Store) ArticleAuthorsCSR() (offsets []int64, authors []AuthorID) {
	return s.artAuthorOff, s.artAuthors
}

// AuthorArticlesCSR returns the author→articles CSR pair, each row in
// ascending article order.
func (s *Store) AuthorArticlesCSR() (offsets []int64, articles []ArticleID) {
	return s.authorArtOff, s.authorArts
}

// VenueArticlesCSR returns the venue→articles CSR pair, each row in
// ascending article order.
func (s *Store) VenueArticlesCSR() (offsets []int64, articles []ArticleID) {
	return s.venueArtOff, s.venueArts
}

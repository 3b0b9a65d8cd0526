// Package hetnet assembles the heterogeneous academic network used by
// the heterogeneous ranking algorithms: the article citation graph
// plus the article–author and article–venue bipartite layers, with
// per-article publication times.
//
// A Network is an immutable index built once from a corpus.Store; all
// layers use dense indices aligned with the store, and its accessors
// read the store's own columns. The solvers never walk the Network:
// they walk its SolverView, which holds the one pull-form index of the
// bipartite layers (in solver order) and every kernel over it — the
// author and venue gathers and spreads, the inline blend layers, and
// the co-authorship walk, computed from the two authorship CSRs
// without materialising an author×author graph.
package hetnet

import (
	"slices"
	"sync"

	"scholarrank/internal/corpus"
	"scholarrank/internal/graph"
)

// Network is the assembled heterogeneous view of a corpus.
type Network struct {
	store *corpus.Store

	// Citations is the article->article citation graph (a cites b).
	Citations *graph.Graph

	// Years[p] is the publication year of article p.
	Years []float64

	// Now is the observation time: the latest publication year in the
	// corpus. Ages are measured back from Now.
	Now float64

	// Author layer, CSR over authors: articles written by each author.
	authorOffsets  []int64
	authorArticles []corpus.ArticleID

	// Venue layer, CSR over venues.
	venueOffsets  []int64
	venueArticles []corpus.ArticleID

	// Solver-order projection through the store's chronological
	// permutation, built lazily on first SolverView call.
	solverOnce sync.Once
	solver     *SolverView
}

// Build indexes the corpus into a Network. The store must not be
// mutated afterwards.
//
// The bipartite layers are not re-derived: the frozen Store already
// holds the author→articles and venue→articles CSR columns, so Build
// aliases them directly. Building a network over a loaded corpus is
// therefore O(edges) for the citation operator only.
func Build(s *corpus.Store) *Network {
	n := &Network{
		store:     s,
		Citations: s.CitationGraph(),
		Years:     s.Years(),
	}
	_, maxYear := s.YearRange()
	n.Now = float64(maxYear)
	n.authorOffsets, n.authorArticles = s.AuthorArticlesCSR()
	n.venueOffsets, n.venueArticles = s.VenueArticlesCSR()
	return n
}

// Grow builds the Network for a corpus that evolved from the one old
// indexes — the delta-ingest path of a live system. The citation
// graph is always rebuilt (deltas add citations by definition), but
// when the delta touched no article metadata — same articles, authors
// and venues, only new citation edges between existing articles — the
// bipartite author/venue layers and the years vector are carried over
// from old instead of being reindexed. All carried-over state is
// immutable, so the old network keeps serving concurrently. A nil old
// degrades to Build.
func Grow(old *Network, s *corpus.Store) *Network {
	if old == nil || !sameEntityShape(old, s) {
		return Build(s)
	}
	n := &Network{
		store:          s,
		Citations:      s.CitationGraph(),
		Years:          old.Years,
		Now:            old.Now,
		authorOffsets:  old.authorOffsets,
		authorArticles: old.authorArticles,
		venueOffsets:   old.venueOffsets,
		venueArticles:  old.venueArticles,
	}
	// The solver view is deliberately NOT carried over: it projects
	// through the store's solver permutation, which is recomputed at
	// every freeze and moves when a delta back-dates an article. The
	// grown network builds its view, pull index included, on first use.
	return n
}

// sameEntityShape reports whether the store has exactly the entity
// structure old was indexed from: equal article/author/venue counts
// with unchanged per-article years, authors and venues. Citations are
// deliberately not compared — they are what a delta changes. With
// columnar stores this is four flat slice compares, no row iteration.
func sameEntityShape(old *Network, s *corpus.Store) bool {
	os := old.store
	if s.NumArticles() != os.NumArticles() ||
		s.NumAuthors() != os.NumAuthors() ||
		s.NumVenues() != os.NumVenues() {
		return false
	}
	oldOff, oldAuthors := os.ArticleAuthorsCSR()
	newOff, newAuthors := s.ArticleAuthorsCSR()
	return slices.Equal(newOff, oldOff) &&
		slices.Equal(newAuthors, oldAuthors) &&
		slices.Equal(s.VenueColumn(), os.VenueColumn()) &&
		slices.Equal(s.YearColumn(), os.YearColumn())
}

// Store returns the underlying corpus.
func (n *Network) Store() *corpus.Store { return n.store }

// NumArticles returns the article count.
func (n *Network) NumArticles() int { return n.store.NumArticles() }

// NumAuthors returns the author count.
func (n *Network) NumAuthors() int { return n.store.NumAuthors() }

// NumVenues returns the venue count.
func (n *Network) NumVenues() int { return n.store.NumVenues() }

// AuthorArticles returns the articles written by author a. The slice
// aliases internal storage and must not be modified.
func (n *Network) AuthorArticles(a corpus.AuthorID) []corpus.ArticleID {
	return n.authorArticles[n.authorOffsets[a]:n.authorOffsets[a+1]]
}

// VenueArticles returns the articles published at venue v. The slice
// aliases internal storage and must not be modified.
func (n *Network) VenueArticles(v corpus.VenueID) []corpus.ArticleID {
	return n.venueArticles[n.venueOffsets[v]:n.venueOffsets[v+1]]
}

// ArticleAuthors returns the authors of article p.
func (n *Network) ArticleAuthors(p corpus.ArticleID) []corpus.AuthorID {
	return n.store.Authors(p)
}

// ArticleVenue returns the venue of article p (corpus.NoVenue if none).
func (n *Network) ArticleVenue(p corpus.ArticleID) corpus.VenueID {
	return n.store.VenueOf(p)
}

// Age returns the age of article p in years at observation time Now.
func (n *Network) Age(p corpus.ArticleID) float64 {
	a := n.Now - n.Years[p]
	if a < 0 {
		return 0
	}
	return a
}

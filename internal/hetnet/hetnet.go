// Package hetnet assembles the heterogeneous academic network used by
// the heterogeneous ranking algorithms: the article citation graph
// plus the article–author and article–venue bipartite layers, with
// per-article publication times.
//
// A Network is an immutable index built once from a corpus.Store; all
// layers use dense indices aligned with the store.
package hetnet

import (
	"slices"
	"sync"

	"scholarrank/internal/corpus"
	"scholarrank/internal/graph"
	"scholarrank/internal/sparse"
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

	// Co-authorship graph, built lazily (only CoRank needs it).
	coauthorOnce sync.Once
	coauthor     *graph.Graph

	// Pull-mode index for the gather/spread kernels, built lazily on
	// first use. Pull form makes every kernel write each output cell
	// exactly once, so the sweeps parallelise over a worker pool with
	// no scatter races.
	pullOnce      sync.Once
	artAuthorOff  []int64            // CSR over articles: authors of each article
	artAuthors    []corpus.AuthorID  //
	invArtAuthors []float64          // per article: 1/#authors (0 when none)
	invAuthorArts []float64          // per author: 1/#articles (0 when none)
	venueOf       []corpus.VenueID   // per article venue (corpus.NoVenue when none)
	invVenueArts  []float64          // per venue: 1/#articles (0 when none)
	noAuthorArts  []corpus.ArticleID // articles that leak in author gathers
	noVenueArts   []corpus.ArticleID // articles that leak in venue gathers
	authorChunks  []int32            // edge-balanced partitions for the pool
	venueChunks   []int32
	articleChunks []int32

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
// operator is always rebuilt (deltas add citations by definition),
// but when the delta touched no article metadata — same articles,
// authors and venues, only new citation edges between existing
// articles — the bipartite author/venue layers, the years vector and
// the lazily-built pull index are carried over from old instead of
// being reindexed. All carried-over state is immutable, so the old
// network keeps serving concurrently. A nil old degrades to Build.
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
	old.pullOnce.Do(old.buildPullIndex)
	n.artAuthorOff = old.artAuthorOff
	n.artAuthors = old.artAuthors
	n.invArtAuthors = old.invArtAuthors
	n.invAuthorArts = old.invAuthorArts
	n.venueOf = old.venueOf
	n.invVenueArts = old.invVenueArts
	n.noAuthorArts = old.noAuthorArts
	n.noVenueArts = old.noVenueArts
	n.authorChunks = old.authorChunks
	n.venueChunks = old.venueChunks
	n.articleChunks = old.articleChunks
	n.pullOnce.Do(func() {}) // mark the copied pull index as built
	// The solver view is deliberately NOT carried over: it projects
	// through the store's solver permutation, which is recomputed at
	// every freeze and moves when a delta back-dates an article. The
	// grown network rebuilds its view on first use.
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

// CoauthorGraph returns the weighted, symmetric co-authorship graph:
// an edge a<->b with weight equal to the number of articles the two
// authors share. It is built on first use and cached; the build is
// O(Σ k_p²) over per-article author counts k_p.
func (n *Network) CoauthorGraph() *graph.Graph {
	n.coauthorOnce.Do(func() {
		b := graph.NewBuilder(n.NumAuthors(), true)
		for p := 0; p < n.NumArticles(); p++ {
			authors := n.store.Authors(corpus.ArticleID(p))
			for i := 0; i < len(authors); i++ {
				for j := i + 1; j < len(authors); j++ {
					// Builder merges duplicates by summing weights,
					// so repeated collaborations accumulate.
					_ = b.AddWeightedEdge(authors[i], authors[j], 1)
					_ = b.AddWeightedEdge(authors[j], authors[i], 1)
				}
			}
		}
		n.coauthor = b.Build()
	})
	return n.coauthor
}

// ensurePullIndex builds the pull-mode adjacency used by the
// gather/spread kernels: a flattened article→authors CSR, per-entity
// inverse degrees, and edge-balanced chunk plans so the pool's
// workers each carry a near-equal share of the bipartite edges.
func (n *Network) ensurePullIndex() {
	n.pullOnce.Do(n.buildPullIndex)
}

// buildPullIndex is the ensurePullIndex body; Grow also calls it (via
// the old network's once) so a grown network can copy the result.
// The article→authors CSR and the venue column alias the store's
// frozen columns; only the inverse-degree vectors and chunk plans are
// computed here.
func (n *Network) buildPullIndex() {
	nArt := n.NumArticles()
	n.artAuthorOff, n.artAuthors = n.store.ArticleAuthorsCSR()
	n.venueOf = n.store.VenueColumn()
	n.invArtAuthors = make([]float64, nArt)
	for p := 0; p < nArt; p++ {
		if d := n.artAuthorOff[p+1] - n.artAuthorOff[p]; d > 0 {
			n.invArtAuthors[p] = 1 / float64(d)
		} else {
			n.noAuthorArts = append(n.noAuthorArts, corpus.ArticleID(p))
		}
		if n.venueOf[p] == corpus.NoVenue {
			n.noVenueArts = append(n.noVenueArts, corpus.ArticleID(p))
		}
	}

	n.invAuthorArts = make([]float64, n.NumAuthors())
	for a := range n.invAuthorArts {
		if d := n.authorOffsets[a+1] - n.authorOffsets[a]; d > 0 {
			n.invAuthorArts[a] = 1 / float64(d)
		}
	}
	n.invVenueArts = make([]float64, n.NumVenues())
	for v := range n.invVenueArts {
		if d := n.venueOffsets[v+1] - n.venueOffsets[v]; d > 0 {
			n.invVenueArts[v] = 1 / float64(d)
		}
	}
	n.authorChunks = sparse.EdgeChunks(n.authorOffsets)
	n.venueChunks = sparse.EdgeChunks(n.venueOffsets)
	n.articleChunks = sparse.EdgeChunks(n.artAuthorOff)
}

// SpreadAuthorsToArticles distributes each author's score uniformly
// over that author's articles, overwriting dst. Authors with no
// articles contribute nothing. Serial; see SpreadAuthorsToArticlesPar.
func (n *Network) SpreadAuthorsToArticles(dst, authorScore []float64) {
	n.SpreadAuthorsToArticlesPar(nil, dst, authorScore)
}

// SpreadAuthorsToArticlesPar is SpreadAuthorsToArticles parallelised
// over a worker pool (nil runs serially). The kernel runs in pull
// form — each article sums its authors' shares — so chunks write
// disjoint output ranges and need no synchronisation.
func (n *Network) SpreadAuthorsToArticlesPar(pool *sparse.Pool, dst, authorScore []float64) {
	n.ensurePullIndex()
	chunks := n.articleChunks
	pool.Run(len(chunks)-1, func(c int) {
		for p := chunks[c]; p < chunks[c+1]; p++ {
			var s float64
			for _, a := range n.artAuthors[n.artAuthorOff[p]:n.artAuthorOff[p+1]] {
				s += authorScore[a] * n.invAuthorArts[a]
			}
			dst[p] = s
		}
	})
}

// GatherArticlesToAuthors computes each author's score as the sum of
// their articles' scores, each article splitting its mass equally
// among its authors. dst is overwritten. Articles without authors
// contribute nothing; the leaked mass is returned so callers can
// redistribute it. Serial; see GatherArticlesToAuthorsPar.
func (n *Network) GatherArticlesToAuthors(dst, articleScore []float64) (leaked float64) {
	return n.GatherArticlesToAuthorsPar(nil, dst, articleScore)
}

// GatherArticlesToAuthorsPar is GatherArticlesToAuthors parallelised
// over a worker pool (nil runs serially), pulling through the
// author→articles CSR so each author cell is written exactly once.
func (n *Network) GatherArticlesToAuthorsPar(pool *sparse.Pool, dst, articleScore []float64) (leaked float64) {
	n.ensurePullIndex()
	chunks := n.authorChunks
	pool.Run(len(chunks)-1, func(c int) {
		for a := chunks[c]; a < chunks[c+1]; a++ {
			var s float64
			for _, p := range n.authorArticles[n.authorOffsets[a]:n.authorOffsets[a+1]] {
				s += articleScore[p] * n.invArtAuthors[p]
			}
			dst[a] = s
		}
	})
	for _, p := range n.noAuthorArts {
		leaked += articleScore[p]
	}
	return leaked
}

// GatherArticlesToAuthorsScaledPar is GatherArticlesToAuthorsPar with
// each author's sum additionally multiplied by that author's spread
// share 1/#articles — exactly the factor SpreadAuthorsToArticles
// would apply per term. Combined with AuthorBlendLayer it lets a
// sparse.Transition.BlendStep sweep consume the author layer without
// a separate spread pass over the article–author edges.
func (n *Network) GatherArticlesToAuthorsScaledPar(pool *sparse.Pool, dst, articleScore []float64) (leaked float64) {
	n.ensurePullIndex()
	chunks := n.authorChunks
	pool.Run(len(chunks)-1, func(c int) {
		for a := chunks[c]; a < chunks[c+1]; a++ {
			var s float64
			for _, p := range n.authorArticles[n.authorOffsets[a]:n.authorOffsets[a+1]] {
				s += articleScore[p] * n.invArtAuthors[p]
			}
			dst[a] = s * n.invAuthorArts[a]
		}
	})
	for _, p := range n.noAuthorArts {
		leaked += articleScore[p]
	}
	return leaked
}

// GatherArticlesToVenuesScaledPar is GatherArticlesToVenuesPar with
// each venue's sum additionally multiplied by that venue's spread
// share 1/#articles; see GatherArticlesToAuthorsScaledPar.
func (n *Network) GatherArticlesToVenuesScaledPar(pool *sparse.Pool, dst, articleScore []float64) (leaked float64) {
	n.ensurePullIndex()
	chunks := n.venueChunks
	pool.Run(len(chunks)-1, func(c int) {
		for v := chunks[c]; v < chunks[c+1]; v++ {
			var s float64
			for _, p := range n.venueArticles[n.venueOffsets[v]:n.venueOffsets[v+1]] {
				s += articleScore[p]
			}
			dst[v] = s * n.invVenueArts[v]
		}
	})
	for _, p := range n.noVenueArts {
		leaked += articleScore[p]
	}
	return leaked
}

// AuthorBlendLayer wraps vec (per-author scores, pre-scaled by
// GatherArticlesToAuthorsScaledPar) as the aux-gather descriptor a
// BlendStep sweep reads inline through the article→authors CSR.
func (n *Network) AuthorBlendLayer(vec []float64) *sparse.AuxGather {
	n.ensurePullIndex()
	return &sparse.AuxGather{Off: n.artAuthorOff, Idx: n.artAuthors, Vec: vec}
}

// VenueBlendLayer wraps vec (per-venue scores, pre-scaled by
// GatherArticlesToVenuesScaledPar) as the aux-lookup descriptor a
// BlendStep sweep reads inline through the per-article venue index
// (corpus.NoVenue is the < 0 sentinel AuxLookup maps to zero).
func (n *Network) VenueBlendLayer(vec []float64) *sparse.AuxLookup {
	n.ensurePullIndex()
	return &sparse.AuxLookup{Of: n.venueOf, Vec: vec}
}

// SpreadVenuesToArticles distributes each venue's score uniformly over
// its articles. dst is overwritten. Serial; see
// SpreadVenuesToArticlesPar.
func (n *Network) SpreadVenuesToArticles(dst, venueScore []float64) {
	n.SpreadVenuesToArticlesPar(nil, dst, venueScore)
}

// SpreadVenuesToArticlesPar is SpreadVenuesToArticles parallelised
// over a worker pool (nil runs serially). An article has at most one
// venue, so the pull form is a single indexed read per article.
func (n *Network) SpreadVenuesToArticlesPar(pool *sparse.Pool, dst, venueScore []float64) {
	n.ensurePullIndex()
	chunks := n.articleChunks
	pool.Run(len(chunks)-1, func(c int) {
		for p := chunks[c]; p < chunks[c+1]; p++ {
			if v := n.venueOf[p]; v != corpus.NoVenue {
				dst[p] = venueScore[v] * n.invVenueArts[v]
			} else {
				dst[p] = 0
			}
		}
	})
}

// GatherArticlesToVenues computes each venue's score as the sum of its
// articles' scores (an article has at most one venue, so no split).
// Articles without a venue leak; the leaked mass is returned. Serial;
// see GatherArticlesToVenuesPar.
func (n *Network) GatherArticlesToVenues(dst, articleScore []float64) (leaked float64) {
	return n.GatherArticlesToVenuesPar(nil, dst, articleScore)
}

// GatherArticlesToVenuesPar is GatherArticlesToVenues parallelised
// over a worker pool (nil runs serially), pulling through the
// venue→articles CSR.
func (n *Network) GatherArticlesToVenuesPar(pool *sparse.Pool, dst, articleScore []float64) (leaked float64) {
	n.ensurePullIndex()
	chunks := n.venueChunks
	pool.Run(len(chunks)-1, func(c int) {
		for v := chunks[c]; v < chunks[c+1]; v++ {
			var s float64
			for _, p := range n.venueArticles[n.venueOffsets[v]:n.venueOffsets[v+1]] {
				s += articleScore[p]
			}
			dst[v] = s
		}
	})
	for _, p := range n.noVenueArts {
		leaked += articleScore[p]
	}
	return leaked
}

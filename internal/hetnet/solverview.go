package hetnet

import (
	"sync"

	"scholarrank/internal/corpus"
	"scholarrank/internal/graph"
	"scholarrank/internal/sparse"
)

// SolverView is the network projected into solver (permuted) article
// order: every article-indexed structure the iterative stages touch —
// the citation graph, the years vector and both bipartite layers —
// relabelled through the store's chronological permutation. Solvers
// run entirely in this space and map their score vectors back through
// Perm() at the end; author and venue indices are unaffected by the
// relabelling.
//
// The view is the one holder of the bipartite layers' pull-form index
// and of every kernel over it. Pull form makes each kernel write every
// output cell exactly once, so the kernels parallelise over a worker
// pool with no scatter races. The index is built from the store's
// columns: when the store carries no permutation the view aliases them
// with zero copies and derives only the inverse degrees, leak lists and
// chunk plans, so holding a view is cheap for corpora that are already
// in solver order.
type SolverView struct {
	net  *Network
	perm *sparse.Permutation

	// Citations is the citation graph in solver order.
	Citations *graph.Graph
	// Years[p] is the publication year of solver-order article p.
	Years []float64
	// YearColumn[p] is the same year as the store's integer: the column
	// the gap-decayed citation operators are built from. It aliases the
	// store's own column when the view does.
	YearColumn []int32
	// Now mirrors Network.Now.
	Now float64

	authorOffsets  []int64            // CSR over authors: articles of each author
	authorArticles []corpus.ArticleID //
	venueOffsets   []int64            // CSR over venues: articles at each venue
	venueArticles  []corpus.ArticleID //
	artAuthorOff   []int64            // CSR over articles: authors of each article
	artAuthors     []corpus.AuthorID  //
	venueOf        []corpus.VenueID   // per article venue (corpus.NoVenue when none)
	invArtAuthors  []float64          // per article: 1/#authors (0 when none)
	invAuthorArts  []float64          // per author: 1/#articles (0 when none)
	invVenueArts   []float64          // per venue: 1/#articles (0 when none)
	noAuthorArts   []corpus.ArticleID // articles that leak in author gathers, ascending
	noVenueArts    []corpus.ArticleID // articles that leak in venue gathers, ascending
	authorChunks   []int32            // edge-balanced partitions for the pool
	venueChunks    []int32
	articleChunks  []int32

	// Pull-form citation operator, built lazily on first use (see
	// CitationTransition).
	citOnce  sync.Once
	citTrans *sparse.Transition
}

// SolverView returns the solver-order projection of the network,
// building it on first use. The view is cached and immutable; it is
// safe to share across goroutines once returned.
func (n *Network) SolverView() *SolverView {
	n.solverOnce.Do(n.buildSolverView)
	return n.solver
}

// buildSolverView materialises the projection from the store's
// columns, relabelling the article-indexed ones when the store carries
// a permutation, then derives the kernels' index.
func (n *Network) buildSolverView() {
	s := n.store
	v := &SolverView{net: n, Citations: n.Citations, Years: n.Years, YearColumn: s.YearColumn(), Now: n.Now}
	n.solver = v
	v.authorOffsets, v.authorArticles = s.AuthorArticlesCSR()
	v.venueOffsets, v.venueArticles = s.VenueArticlesCSR()
	v.artAuthorOff, v.artAuthors = s.ArticleAuthorsCSR()
	v.venueOf = s.VenueColumn()
	if p := s.SolverPermutation(); p != nil {
		v.permute(p)
	}
	v.index()
}

// permute relabels the view's article-indexed structures through p.
// The CSRs keyed by author and venue keep their offsets, with the
// article ids inside each row relabelled (row order is irrelevant to
// the gather sums); the article-keyed ones move their rows.
func (v *SolverView) permute(p *sparse.Permutation) {
	v.perm = p
	fwd, inv := p.Fwd(), p.Inv()
	nArt := len(fwd)

	v.Citations = v.Citations.Permute(fwd)
	years := make([]float64, nArt)
	for i, y := range v.Years {
		years[fwd[i]] = y
	}
	v.Years = years
	yearCol := make([]int32, nArt)
	for i, y := range v.YearColumn {
		yearCol[fwd[i]] = y
	}
	v.YearColumn = yearCol

	v.authorArticles = mapArticleIDs(v.authorArticles, fwd)
	v.venueArticles = mapArticleIDs(v.venueArticles, fwd)

	// Solver row p of the article→authors CSR holds the authors of
	// original article inv[p].
	off, authors := v.artAuthorOff, v.artAuthors
	v.artAuthorOff = make([]int64, nArt+1)
	v.artAuthors = make([]corpus.AuthorID, 0, len(authors))
	for np := 0; np < nArt; np++ {
		op := inv[np]
		v.artAuthors = append(v.artAuthors, authors[off[op]:off[op+1]]...)
		v.artAuthorOff[np+1] = int64(len(v.artAuthors))
	}
	venueOf := make([]corpus.VenueID, nArt)
	for i, vn := range v.venueOf {
		venueOf[fwd[i]] = vn
	}
	v.venueOf = venueOf
}

// index derives what the kernels read beside the layers: the inverse
// degrees, the leak lists (ascending, so the leak sums walk the score
// vector sequentially) and the edge-balanced chunk plans.
func (v *SolverView) index() {
	nArt := v.NumArticles()
	v.invArtAuthors = make([]float64, nArt)
	for p := 0; p < nArt; p++ {
		if d := v.artAuthorOff[p+1] - v.artAuthorOff[p]; d > 0 {
			v.invArtAuthors[p] = 1 / float64(d)
		} else {
			v.noAuthorArts = append(v.noAuthorArts, corpus.ArticleID(p))
		}
		if v.venueOf[p] == corpus.NoVenue {
			v.noVenueArts = append(v.noVenueArts, corpus.ArticleID(p))
		}
	}
	v.invAuthorArts = inverseDegrees(v.authorOffsets, v.NumAuthors())
	v.invVenueArts = inverseDegrees(v.venueOffsets, v.NumVenues())
	v.authorChunks = sparse.EdgeChunks(v.authorOffsets)
	v.venueChunks = sparse.EdgeChunks(v.venueOffsets)
	v.articleChunks = sparse.EdgeChunks(v.artAuthorOff)
}

// inverseDegrees returns 1/#entries for each of the n rows of a CSR,
// 0 for an empty row.
func inverseDegrees(off []int64, n int) []float64 {
	inv := make([]float64, n)
	for i := range inv {
		if d := off[i+1] - off[i]; d > 0 {
			inv[i] = 1 / float64(d)
		}
	}
	return inv
}

// mapArticleIDs relabels ids through fwd into a fresh slice.
func mapArticleIDs(ids []corpus.ArticleID, fwd []int32) []corpus.ArticleID {
	out := make([]corpus.ArticleID, len(ids))
	for i, id := range ids {
		out[i] = fwd[id]
	}
	return out
}

// CitationTransition returns the pull-form operator — the in-edge
// CSR — of the solver-order citation graph, building it on first use.
// There is one per network: the solver's citation and gap walks and
// the related-article walk all read it. It holds 4 bytes per edge (the
// citing article) and one inverse out-degree per article, and the gap
// operators are O(articles) views of it (sparse.Transition.GapWeighted
// over YearColumn). Its sweeps are Gauss–Seidel
// (sparse.Transition.GaussSeidel), decided here once with the back
// edges counted, and every gap view of it inherits both; a walk that
// wants the Jacobi sweep builds its own sparse.NewTransition. It is
// immutable, carries no worker pool, and is safe to share across
// goroutines; each user binds its own pool with Transition.WithPool.
func (v *SolverView) CitationTransition() *sparse.Transition {
	v.citOnce.Do(func() { v.citTrans = sparse.NewTransition(v.Citations, nil).GaussSeidel() })
	return v.citTrans
}

// Perm returns the permutation relating original article order to the
// view's solver order (nil when they coincide).
func (v *SolverView) Perm() *sparse.Permutation { return v.perm }

// Network returns the base network the view projects.
func (v *SolverView) Network() *Network { return v.net }

// NumArticles returns the article count.
func (v *SolverView) NumArticles() int { return v.net.NumArticles() }

// NumAuthors returns the author count.
func (v *SolverView) NumAuthors() int { return v.net.NumAuthors() }

// NumVenues returns the venue count.
func (v *SolverView) NumVenues() int { return v.net.NumVenues() }

// GatherArticlesToAuthorsPar computes each author's score as the sum
// of their articles' scores (articleScore in solver order), each
// article splitting its mass equally among its authors, over a worker
// pool (nil runs serially). dst is overwritten. Articles without
// authors contribute nothing; the leaked mass is returned so callers
// can redistribute it.
func (v *SolverView) GatherArticlesToAuthorsPar(pool *sparse.Pool, dst, articleScore []float64) (leaked float64) {
	return v.gatherAuthors(pool, dst, articleScore, false)
}

// GatherArticlesToAuthorsScaledPar is GatherArticlesToAuthorsPar with
// each author's sum additionally multiplied by that author's spread
// share 1/#articles — exactly the factor SpreadAuthorsToArticlesPar
// applies per term. Combined with AuthorBlendLayer it lets a
// sparse.Transition.BlendStep sweep consume the author layer without a
// separate spread pass over the article–author edges.
func (v *SolverView) GatherArticlesToAuthorsScaledPar(pool *sparse.Pool, dst, articleScore []float64) (leaked float64) {
	return v.gatherAuthors(pool, dst, articleScore, true)
}

func (v *SolverView) gatherAuthors(pool *sparse.Pool, dst, articleScore []float64, scaled bool) (leaked float64) {
	chunks := v.authorChunks
	pool.Run(len(chunks)-1, func(c int) {
		for a := chunks[c]; a < chunks[c+1]; a++ {
			var s float64
			for _, p := range v.authorArticles[v.authorOffsets[a]:v.authorOffsets[a+1]] {
				s += articleScore[p] * v.invArtAuthors[p]
			}
			if scaled {
				s *= v.invAuthorArts[a]
			}
			dst[a] = s
		}
	})
	for _, p := range v.noAuthorArts {
		leaked += articleScore[p]
	}
	return leaked
}

// SpreadAuthorsToArticlesPar distributes each author's score uniformly
// over that author's articles, overwriting dst (solver order), over a
// worker pool (nil runs serially). Authors with no articles contribute
// nothing. The kernel runs in pull form — each article sums its
// authors' shares — so chunks write disjoint output ranges.
func (v *SolverView) SpreadAuthorsToArticlesPar(pool *sparse.Pool, dst, authorScore []float64) {
	chunks := v.articleChunks
	pool.Run(len(chunks)-1, func(c int) {
		for p := chunks[c]; p < chunks[c+1]; p++ {
			var s float64
			for _, a := range v.artAuthors[v.artAuthorOff[p]:v.artAuthorOff[p+1]] {
				s += authorScore[a] * v.invAuthorArts[a]
			}
			dst[p] = s
		}
	})
}

// GatherArticlesToVenuesScaledPar computes each venue's score as the
// sum of its articles' scores (an article has at most one venue, so no
// split) times the venue's spread share 1/#articles, over a worker
// pool (nil runs serially); see GatherArticlesToAuthorsScaledPar.
// Articles without a venue leak; the leaked mass is returned.
func (v *SolverView) GatherArticlesToVenuesScaledPar(pool *sparse.Pool, dst, articleScore []float64) (leaked float64) {
	chunks := v.venueChunks
	pool.Run(len(chunks)-1, func(c int) {
		for vn := chunks[c]; vn < chunks[c+1]; vn++ {
			var s float64
			for _, p := range v.venueArticles[v.venueOffsets[vn]:v.venueOffsets[vn+1]] {
				s += articleScore[p]
			}
			dst[vn] = s * v.invVenueArts[vn]
		}
	})
	for _, p := range v.noVenueArts {
		leaked += articleScore[p]
	}
	return leaked
}

// AuthorBlendLayer wraps vec (per-author scores, pre-scaled by
// GatherArticlesToAuthorsScaledPar) as the aux-gather descriptor a
// BlendStep sweep reads inline through the article→authors CSR.
func (v *SolverView) AuthorBlendLayer(vec []float64) *sparse.AuxGather {
	return &sparse.AuxGather{Off: v.artAuthorOff, Idx: v.artAuthors, Vec: vec}
}

// VenueBlendLayer wraps vec (per-venue scores, pre-scaled by
// GatherArticlesToVenuesScaledPar) as the aux-lookup descriptor a
// BlendStep sweep reads inline through the per-article venue index
// (corpus.NoVenue is the < 0 sentinel AuxLookup maps to zero).
func (v *SolverView) VenueBlendLayer(vec []float64) *sparse.AuxLookup {
	return &sparse.AuxLookup{Of: v.venueOf, Vec: vec}
}

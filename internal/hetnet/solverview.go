package hetnet

import (
	"slices"
	"sync"

	"scholarrank/internal/corpus"
	"scholarrank/internal/graph"
	"scholarrank/internal/sparse"
)

// SolverView is the network projected into solver (permuted) article
// order: every article-indexed structure the iterative stages touch —
// the citation graph, the years vector, both bipartite layers and the
// pull-mode index — relabelled through the store's chronological
// permutation. Solvers run entirely in this space and map their score
// vectors back through Perm() at the end; author and venue indices are
// unaffected by the relabelling.
//
// When the store carries no permutation the view aliases the base
// network's arrays with zero copies, so holding a view is free for
// corpora that are already in solver order.
type SolverView struct {
	net  *Network
	perm *sparse.Permutation

	// Citations is the citation graph in solver order.
	Citations *graph.Graph
	// Years[p] is the publication year of solver-order article p.
	Years []float64
	// Now mirrors Network.Now.
	Now float64

	authorOffsets  []int64
	authorArticles []corpus.ArticleID
	venueOffsets   []int64
	venueArticles  []corpus.ArticleID
	artAuthorOff   []int64
	artAuthors     []corpus.AuthorID
	invArtAuthors  []float64
	invAuthorArts  []float64
	venueOf        []corpus.VenueID
	invVenueArts   []float64
	noAuthorArts   []corpus.ArticleID
	noVenueArts    []corpus.ArticleID
	authorChunks   []int32
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

// buildSolverView materialises the permuted projection. Author- and
// venue-indexed arrays (offsets, inverse degrees, their chunk plans)
// are order-invariant and alias the base index; only article-indexed
// data is relabelled.
func (n *Network) buildSolverView() {
	n.ensurePullIndex()
	v := &SolverView{net: n, Now: n.Now}
	n.solver = v
	p := n.store.SolverPermutation()
	if p == nil {
		v.Citations = n.Citations
		v.Years = n.Years
		v.authorOffsets, v.authorArticles = n.authorOffsets, n.authorArticles
		v.venueOffsets, v.venueArticles = n.venueOffsets, n.venueArticles
		v.artAuthorOff, v.artAuthors = n.artAuthorOff, n.artAuthors
		v.invArtAuthors, v.invAuthorArts = n.invArtAuthors, n.invAuthorArts
		v.venueOf, v.invVenueArts = n.venueOf, n.invVenueArts
		v.noAuthorArts, v.noVenueArts = n.noAuthorArts, n.noVenueArts
		v.authorChunks, v.venueChunks = n.authorChunks, n.venueChunks
		v.articleChunks = n.articleChunks
		return
	}
	v.perm = p
	fwd, inv := p.Fwd(), p.Inv()
	nArt := len(fwd)

	v.Citations = n.Citations.Permute(fwd)
	v.Years = make([]float64, nArt)
	for i, y := range n.Years {
		v.Years[fwd[i]] = y
	}

	// Bipartite CSRs keyed by author/venue: offsets are unchanged, the
	// article ids inside each row are relabelled in place (row order is
	// irrelevant to the gather sums).
	v.authorOffsets = n.authorOffsets
	v.authorArticles = mapArticleIDs(n.authorArticles, fwd)
	v.venueOffsets = n.venueOffsets
	v.venueArticles = mapArticleIDs(n.venueArticles, fwd)

	// The article→authors CSR is keyed by article, so its rows move:
	// solver row p holds the authors of original article inv[p].
	v.artAuthorOff = make([]int64, nArt+1)
	v.artAuthors = make([]corpus.AuthorID, 0, len(n.artAuthors))
	for np := 0; np < nArt; np++ {
		op := inv[np]
		v.artAuthors = append(v.artAuthors, n.artAuthors[n.artAuthorOff[op]:n.artAuthorOff[op+1]]...)
		v.artAuthorOff[np+1] = int64(len(v.artAuthors))
	}
	v.invArtAuthors = p.Applied(n.invArtAuthors)
	v.invAuthorArts = n.invAuthorArts
	v.invVenueArts = n.invVenueArts
	v.venueOf = make([]corpus.VenueID, nArt)
	for i, vn := range n.venueOf {
		v.venueOf[fwd[i]] = vn
	}
	v.noAuthorArts = mapSortedArticleIDs(n.noAuthorArts, fwd)
	v.noVenueArts = mapSortedArticleIDs(n.noVenueArts, fwd)

	v.authorChunks = n.authorChunks
	v.venueChunks = n.venueChunks
	v.articleChunks = sparse.EdgeChunks(v.artAuthorOff)
}

// mapArticleIDs relabels ids through fwd into a fresh slice.
func mapArticleIDs(ids []corpus.ArticleID, fwd []int32) []corpus.ArticleID {
	out := make([]corpus.ArticleID, len(ids))
	for i, id := range ids {
		out[i] = fwd[id]
	}
	return out
}

// mapSortedArticleIDs relabels ids through fwd and sorts the result,
// so the leak-summation passes walk the score vector sequentially.
func mapSortedArticleIDs(ids []corpus.ArticleID, fwd []int32) []corpus.ArticleID {
	out := mapArticleIDs(ids, fwd)
	slices.Sort(out)
	return out
}

// CitationTransition returns the pull-form operator — the in-edge
// CSR — of the solver-order citation graph, building it on first use.
// There is one per network: the solver's citation and gap walks and
// the related-article walk all read it. Its sweeps are Gauss–Seidel
// (sparse.Transition.GaussSeidel), decided here once with the back
// edges counted, and every reweighting of it inherits both; a walk
// that wants the Jacobi sweep builds its own sparse.NewTransition. It
// is immutable, carries no worker pool, and is safe to share across
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

// GatherArticlesToAuthorsScaledPar mirrors
// Network.GatherArticlesToAuthorsScaledPar with articleScore in solver
// order; dst is per-author and unaffected by the relabelling.
func (v *SolverView) GatherArticlesToAuthorsScaledPar(pool *sparse.Pool, dst, articleScore []float64) (leaked float64) {
	chunks := v.authorChunks
	pool.Run(len(chunks)-1, func(c int) {
		for a := chunks[c]; a < chunks[c+1]; a++ {
			var s float64
			for _, p := range v.authorArticles[v.authorOffsets[a]:v.authorOffsets[a+1]] {
				s += articleScore[p] * v.invArtAuthors[p]
			}
			dst[a] = s * v.invAuthorArts[a]
		}
	})
	for _, p := range v.noAuthorArts {
		leaked += articleScore[p]
	}
	return leaked
}

// GatherArticlesToAuthorsPar mirrors Network.GatherArticlesToAuthorsPar
// with articleScore in solver order.
func (v *SolverView) GatherArticlesToAuthorsPar(pool *sparse.Pool, dst, articleScore []float64) (leaked float64) {
	chunks := v.authorChunks
	pool.Run(len(chunks)-1, func(c int) {
		for a := chunks[c]; a < chunks[c+1]; a++ {
			var s float64
			for _, p := range v.authorArticles[v.authorOffsets[a]:v.authorOffsets[a+1]] {
				s += articleScore[p] * v.invArtAuthors[p]
			}
			dst[a] = s
		}
	})
	for _, p := range v.noAuthorArts {
		leaked += articleScore[p]
	}
	return leaked
}

// SpreadAuthorsToArticlesPar mirrors Network.SpreadAuthorsToArticlesPar
// with dst in solver order.
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

// GatherArticlesToVenuesScaledPar mirrors
// Network.GatherArticlesToVenuesScaledPar in solver order.
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

// AuthorBlendLayer mirrors Network.AuthorBlendLayer over the solver-
// order article→authors CSR.
func (v *SolverView) AuthorBlendLayer(vec []float64) *sparse.AuxGather {
	return &sparse.AuxGather{Off: v.artAuthorOff, Idx: v.artAuthors, Vec: vec}
}

// VenueBlendLayer mirrors Network.VenueBlendLayer over the solver-
// order venue index.
func (v *SolverView) VenueBlendLayer(vec []float64) *sparse.AuxLookup {
	return &sparse.AuxLookup{Of: v.venueOf, Vec: vec}
}

package hetnet

import (
	"scholarrank/internal/corpus"
	"scholarrank/internal/sparse"
)

// Coauthorship is the co-authorship walk over a view's authors: the
// random walk on the author×author graph that joins two authors once
// for every article they share, read straight from the view's two
// authorship CSRs instead of from that graph. With k_p the number of
// authors of article p, author a's out-weight — its count of co-author
// slots — is
//
//	W(a) = Σ_{p∋a} (k_p − 1)
//
// and with xs[a] = x[a]/W(a), and S_p = Σ_{b∈authors(p)} xs[b] the
// pre-scaled mass of p's authors, one step of the walk is
//
//	(Cᵀx)[a] = Σ_{p∋a} (S_p − xs[a])
//
// Authors with W(a) = 0 — no articles, or only single-author ones —
// are the walk's dangling set and get xs = 0. Both CSRs keep an author
// repeated on one article as often as it is listed, and the identity
// holds with that multiplicity, so it is the walk the pair loop over
// each article's author list defines.
//
// A step costs two passes over the authorships and no per-pair
// storage. A Coauthorship holds its scratch vectors, so it serves one
// walk at a time.
type Coauthorship struct {
	view     *SolverView
	inv      []float64         // 1/W(a); 0 for a dangling author
	dangling []corpus.AuthorID // authors with W(a) = 0, ascending
	scaled   []float64         // xs, per author
	sums     []float64         // S_p, per solver-order article
}

// Coauthorship returns the co-authorship walk over the view's authors.
func (v *SolverView) Coauthorship() *Coauthorship {
	c := &Coauthorship{
		view:   v,
		inv:    make([]float64, v.NumAuthors()),
		scaled: make([]float64, v.NumAuthors()),
		sums:   make([]float64, v.NumArticles()),
	}
	for a := range c.inv {
		var w int64
		for _, p := range v.authorArticles[v.authorOffsets[a]:v.authorOffsets[a+1]] {
			w += v.artAuthorOff[p+1] - v.artAuthorOff[p] - 1
		}
		if w > 0 {
			c.inv[a] = 1 / float64(w)
		} else {
			c.dangling = append(c.dangling, corpus.AuthorID(a))
		}
	}
	return c
}

// MulVec computes dst = Cᵀx over a worker pool (nil runs serially),
// overwriting dst. dst and x are per author and must not alias.
func (c *Coauthorship) MulVec(pool *sparse.Pool, dst, x []float64) {
	v, xs, sums := c.view, c.scaled, c.sums
	for a, inv := range c.inv {
		xs[a] = x[a] * inv
	}
	chunks := v.articleChunks
	pool.Run(len(chunks)-1, func(k int) {
		for p := chunks[k]; p < chunks[k+1]; p++ {
			var s float64
			for _, b := range v.artAuthors[v.artAuthorOff[p]:v.artAuthorOff[p+1]] {
				s += xs[b]
			}
			sums[p] = s
		}
	})
	chunks = v.authorChunks
	pool.Run(len(chunks)-1, func(k int) {
		for a := chunks[k]; a < chunks[k+1]; a++ {
			var s float64
			for _, p := range v.authorArticles[v.authorOffsets[a]:v.authorOffsets[a+1]] {
				s += sums[p] - xs[a]
			}
			dst[a] = s
		}
	})
}

// DanglingMass returns the mass x puts on the walk's dangling authors.
func (c *Coauthorship) DanglingMass(x []float64) float64 {
	var s float64
	for _, a := range c.dangling {
		s += x[a]
	}
	return s
}

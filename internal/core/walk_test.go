package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/graph"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// The one reference every walk scorer is checked against: a spec is a
// linear system, so on a small corpus its dense matrix is assembled
// straight from the network's citations, authorships and venues and
// solved exactly by Gaussian elimination — no iteration, no tolerance,
// and no code shared with the executor's kernels.

// denseCorpus is a random corpus of at most 200 articles with every
// shape the walks treat specially: citations in both directions between
// years (back edges and cycles in solver order), articles that cite
// nothing, articles without authors or venue, authors without articles
// and venues without articles.
func denseCorpus(t *testing.T, seed int64) *hetnet.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := corpus.NewBuilder()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	authors := make([]corpus.AuthorID, 40) // the last 5 write nothing
	for i := range authors {
		var err error
		authors[i], err = b.InternAuthor(fmt.Sprintf("a%d", i), "")
		must(err)
	}
	venues := make([]corpus.VenueID, 8) // the last 2 publish nothing
	for i := range venues {
		var err error
		venues[i], err = b.InternVenue(fmt.Sprintf("v%d", i), "")
		must(err)
	}
	n := 120 + rng.Intn(81)
	for i := 0; i < n; i++ {
		m := corpus.ArticleMeta{Key: fmt.Sprintf("p%d", i), Year: 1990 + rng.Intn(25), Venue: corpus.NoVenue}
		if rng.Intn(5) > 0 {
			m.Venue = venues[rng.Intn(len(venues)-2)]
		}
		if rng.Intn(5) > 0 {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				m.Authors = append(m.Authors, authors[rng.Intn(len(authors)-5)])
			}
		}
		_, err := b.AddArticle(m)
		must(err)
	}
	for i := 0; i < n; i++ {
		if rng.Intn(6) == 0 {
			continue // cites nothing
		}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			if j := rng.Intn(n); j != i {
				must(b.AddCitation(corpus.ArticleID(i), corpus.ArticleID(j)))
			}
		}
	}
	net := hetnet.Build(b.Freeze())
	if net.SolverView().CitationTransition().BackEdgeFraction() == 0 {
		t.Fatal("random corpus has no back edges")
	}
	return net
}

// denseWalk assembles s over net in original article order, articles
// then (for a two-block spec) authors, as (I − B)x = c, and returns the
// exact solution.
func denseWalk(net *hetnet.Network, s walkSpec) []float64 {
	n, nA := net.NumArticles(), 0
	if s.coauthors {
		nA = net.NumAuthors()
	}
	size := n + nA
	m := make([][]float64, size) // I − B, augmented with c
	for i := range m {
		m[i] = make([]float64, size+1)
		m[i][i] = 1
	}
	r := make([]float64, n)
	var rSum float64
	for p := range r {
		r[p] = 1
		if s.recent {
			r[p] = math.Exp(-s.rho * net.Age(corpus.ArticleID(p)))
		}
		rSum += r[p]
	}
	for p := range r {
		r[p] /= rSum
		m[p][size] = s.restart*r[p] + s.uniform/float64(n)
	}
	toR := func(j int, w float64) { // column j's mass w restarts through r
		for i, ri := range r {
			m[i][j] -= w * ri
		}
	}
	for u := 0; u < n; u++ {
		cited := net.Citations.Neighbors(graph.NodeID(u))
		if len(cited) == 0 {
			toR(u, s.cite)
			continue
		}
		w := make([]float64, len(cited))
		var out float64
		for k, v := range cited {
			w[k] = math.Exp(-s.rhoGap * math.Max(0, net.Years[u]-net.Years[v]))
			out += w[k]
		}
		for k, v := range cited {
			m[v][u] -= s.cite * w[k] / out
		}
	}
	for p := 0; p < n; p++ {
		as := net.ArticleAuthors(corpus.ArticleID(p))
		switch {
		case s.author == 0 || s.coauthors:
		case len(as) == 0:
			toR(p, s.author)
		default:
			for _, a := range as {
				arts := net.AuthorArticles(a)
				for _, q := range arts {
					m[q][p] -= s.author / float64(len(as)*len(arts))
				}
			}
		}
		switch vn := net.ArticleVenue(corpus.ArticleID(p)); {
		case s.venue == 0:
		case vn == corpus.NoVenue:
			toR(p, s.venue)
		default:
			arts := net.VenueArticles(vn)
			for _, q := range arts {
				m[q][p] -= s.venue / float64(len(arts))
			}
		}
	}
	if s.coauthors {
		uA := 1 / float64(nA)
		pairs := map[[2]corpus.AuthorID]float64{} // co-authorship edge weights a→b
		out := make([]float64, nA)
		for p := 0; p < n; p++ {
			as := net.ArticleAuthors(corpus.ArticleID(p))
			for _, a := range as {
				for _, b := range as {
					if a != b {
						pairs[[2]corpus.AuthorID{a, b}]++
						out[a]++
					}
				}
			}
			for _, a := range as { // the authors gather the articles
				m[n+int(a)][p] -= s.author / float64(len(as))
			}
			if len(as) == 0 {
				for b := 0; b < nA; b++ {
					m[n+b][p] -= s.author * uA
				}
			}
		}
		for e, w := range pairs {
			m[n+int(e[1])][n+int(e[0])] -= s.cite * w / out[e[0]]
		}
		for a := 0; a < nA; a++ {
			m[n+a][size] = s.restart * uA
			arts := net.AuthorArticles(corpus.AuthorID(a))
			for _, q := range arts { // the articles read the authors
				m[q][n+a] -= s.author / float64(len(arts))
			}
			if len(arts) == 0 {
				toR(n+a, s.author)
			}
			if out[a] == 0 {
				for b := 0; b < nA; b++ {
					m[n+b][n+a] -= s.cite * uA
				}
			}
		}
	}
	return gaussSolve(m)
}

// gaussSolve solves the augmented system m = [A | c] by Gaussian
// elimination with partial pivoting, overwriting m.
func gaussSolve(m [][]float64) []float64 {
	size := len(m)
	for k := 0; k < size; k++ {
		p := k
		for i := k + 1; i < size; i++ {
			if math.Abs(m[i][k]) > math.Abs(m[p][k]) {
				p = i
			}
		}
		m[k], m[p] = m[p], m[k]
		for i := k + 1; i < size; i++ {
			if f := m[i][k] / m[k][k]; f != 0 {
				for j := k; j <= size; j++ {
					m[i][j] -= f * m[k][j]
				}
			}
		}
	}
	x := make([]float64, size)
	for i := size - 1; i >= 0; i-- {
		s := m[i][size]
		for j := i + 1; j < size; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x
}

// TestWalkSpecsMatchDenseSolve checks every spec of the eleven walk
// scorers — and a few option bags that change a spec's shape: a
// layerless walk with a uniform part, the hetero walk with both layers
// ablated into a damped one — against its dense solve, on random
// corpora, to 1e-10.
func TestWalkSpecsMatchDenseSolve(t *testing.T) {
	noLayers := func(o *Options) { o.DisableAuthors, o.DisableVenues = true, true }
	cases := []struct {
		scorer string
		bag    ScorerOptions
		tweak  func(*Options)
	}{
		{DefaultScorer, nil, nil}, {ScorerPrestige, nil, nil}, {ScorerHetero, nil, nil},
		{ScorerPageRank, nil, nil}, {ScorerCiteRank, nil, nil}, {ScorerTimedPR, nil, nil},
		{ScorerSCEAS, nil, nil}, {ScorerEWPR, nil, nil}, {ScorerPRank, nil, nil},
		{ScorerFutureRank, nil, nil}, {ScorerCoRank, nil, nil},
		{ScorerFutureRank, ScorerOptions{"beta": 0}, nil},
		{ScorerPRank, ScorerOptions{"author": 0, "paper": 0.8}, nil},
		{ScorerHetero, nil, noLayers},
	}
	walkScorers := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		net := denseCorpus(t, seed)
		n := net.NumArticles()
		for _, c := range cases {
			opts := scorerTestOptions()
			opts.Iter.MaxIter = 5000
			if c.tweak != nil {
				c.tweak(&opts)
			}
			s, err := NewScorer(c.scorer, c.bag)
			if err != nil {
				t.Fatal(err)
			}
			ws, ok := s.(*walkScorer)
			if !ok {
				t.Fatalf("%s is not a walk scorer", c.scorer)
			}
			walkScorers[c.scorer] = true
			ctx := &SolveContext{eng: NewEngine(net), pool: sparse.NewPool(2), opts: opts.effective(), scorer: c.scorer}
			for _, spec := range ws.specs(ctx) {
				x, _, err := ctx.solveWalk(spec)
				if err != nil {
					t.Fatalf("seed %d %s %v: %v", seed, c.scorer, c.bag, err)
				}
				got := append(ctx.Restore(x[:n]), x[n:]...)
				want := denseWalk(net, spec)
				if d := sparse.MaxDiff(got, want); len(got) != len(want) || !(d <= 1e-10) {
					t.Errorf("seed %d %s %v spec %q: %d values deviate from the dense solve's %d by %g",
						seed, c.scorer, c.bag, spec.key, len(got), len(want), d)
				}
			}
		}
	}
	if len(walkScorers) != 11 {
		t.Errorf("%d walk scorers checked, want 11", len(walkScorers))
	}
}

// TestEveryScorerIndependentOfWorkers pins the invariant the serial
// sweep restores for every registered scorer, not only the default:
// the pool only runs passes whose output does not depend on how rows
// are chunked, so Workers 1, 2 and 4 give the same importance (and
// corank the same authors) bit for bit, in the same number of sweeps.
func TestEveryScorerIndependentOfWorkers(t *testing.T) {
	store, _ := genNetwork(t, 4000)
	noisy, err := gen.PerturbYears(store, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := hetnet.Build(noisy)
	for _, name := range ScorerNames() {
		var base *Scores
		for _, workers := range []int{1, 2, 4} {
			opts := DefaultOptions()
			opts.Workers = workers
			sc, err := RankScorer(net, name, nil, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if base == nil {
				base = sc
				continue
			}
			if !slices.Equal(sc.Importance, base.Importance) || !slices.Equal(sc.Authors, base.Authors) ||
				sc.PrestigeStats.Iterations != base.PrestigeStats.Iterations ||
				sc.HeteroStats.Iterations != base.HeteroStats.Iterations {
				t.Errorf("%s workers=%d: differs from workers=1 (importance max %g, authors max %g)", name, workers,
					sparse.MaxDiff(sc.Importance, base.Importance), sparse.MaxDiff(sc.Authors, base.Authors))
			}
		}
	}
}

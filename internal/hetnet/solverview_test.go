package hetnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/graph"
	"scholarrank/internal/sparse"
)

// buildHubbed returns a network whose store carries a non-identity
// solver permutation: publication years are drawn at random against
// the ids, so the chronological order relabels them, and the
// most-cited article is added last. Articles get a mix of
// authored/authorless and venued/venueless rows so every leak path is
// exercised.
func buildHubbed(t testing.TB, nArt int) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := corpus.NewBuilder()
	var authors []corpus.AuthorID
	for i := 0; i < 5; i++ {
		a, err := b.InternAuthor(string(rune('a'+i)), "Author")
		if err != nil {
			t.Fatal(err)
		}
		authors = append(authors, a)
	}
	v, err := b.InternVenue("v", "Venue")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nArt; i++ {
		m := corpus.ArticleMeta{
			Key:   "p" + string(rune('0'+i/100)) + string(rune('0'+(i/10)%10)) + string(rune('0'+i%10)),
			Year:  1990 + rng.Intn(30),
			Venue: corpus.NoVenue,
		}
		if i%3 != 0 {
			m.Venue = v
		}
		if i%4 != 0 {
			m.Authors = []corpus.AuthorID{authors[rng.Intn(len(authors))]}
		}
		if _, err := b.AddArticle(m); err != nil {
			t.Fatal(err)
		}
	}
	hub := corpus.ArticleID(nArt - 1)
	for i := 0; i < nArt-1; i++ {
		if err := b.AddCitation(corpus.ArticleID(i), hub); err != nil {
			t.Fatal(err)
		}
		if i > 0 && rng.Intn(2) == 0 {
			if err := b.AddCitation(corpus.ArticleID(i), corpus.ArticleID(rng.Intn(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := Build(b.Freeze())
	if n.store.SolverPermutation() == nil {
		t.Fatal("fixture produced an identity permutation")
	}
	return n
}

// TestSolverViewIdentityAliases checks the zero-copy fast path: with
// no store permutation the view shares the base network's arrays.
func TestSolverViewIdentityAliases(t *testing.T) {
	n := buildTiny(t)
	if n.store.SolverPermutation() != nil {
		t.Fatal("tiny fixture unexpectedly permuted")
	}
	v := n.SolverView()
	if v.Perm() != nil {
		t.Errorf("identity view has perm %v", v.Perm())
	}
	if v.Citations != n.Citations {
		t.Error("identity view copied the citation graph")
	}
	if len(v.Years) > 0 && &v.Years[0] != &n.Years[0] {
		t.Error("identity view copied the years vector")
	}
	if col := n.store.YearColumn(); len(col) > 0 && &v.YearColumn[0] != &col[0] {
		t.Error("identity view copied the year column")
	}
	_, storeAuthors := n.store.ArticleAuthorsCSR()
	_, storeArts := n.store.AuthorArticlesCSR()
	if &v.artAuthors[0] != &storeAuthors[0] || &v.authorArticles[0] != &storeArts[0] ||
		&v.venueOf[0] != &n.store.VenueColumn()[0] {
		t.Error("identity view copied the store's authorship or venue columns")
	}
	if v2 := n.SolverView(); v2 != v {
		t.Error("view not cached")
	}
}

// TestCitationTransitionSweepsGaussSeidel checks that the view's
// citation operator sweeps Gauss–Seidel by itself, with nothing
// attached per solve: on a generated corpus, whose citations all point
// to lower ids, a plain damped walk over it — and over a reweighting of
// it — lands on the fixed point in one sweep and confirms it with a
// second, while a fresh operator over the same graph is the Jacobi walk
// and takes tens of sweeps to the same point.
func TestCitationTransitionSweepsGaussSeidel(t *testing.T) {
	c, err := gen.Generate(gen.NewDefaultConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	v := Build(c.Store).SolverView()
	gs := v.CitationTransition()
	if f := gs.BackEdgeFraction(); f != 0 {
		t.Fatalf("back-edge fraction %g on a corpus that cites strictly backward", f)
	}
	teleport := make([]float64, gs.N())
	sparse.Uniform(teleport)
	opts := sparse.IterOptions{Tol: 1e-12}
	jacobi, jst, err := sparse.DampedWalk(sparse.NewTransition(v.Citations, nil), 0.85, teleport, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !jst.Converged || jst.Iterations < 20 {
		t.Fatalf("Jacobi walk: %d sweeps (converged %v), want tens", jst.Iterations, jst.Converged)
	}
	gap, err := gs.GapWeighted(v.YearColumn, func(gap int) float64 { return math.Exp(-0.3 * float64(gap)) })
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*sparse.Transition{
		"citation":     gs,
		"gap-weighted": gap,
	} {
		_, st, err := sparse.DampedWalk(tr, 0.85, teleport, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged || st.Iterations > 2 {
			t.Errorf("%s: %d sweeps (converged %v), want <= 2", name, st.Iterations, st.Converged)
		}
	}
	x, _, err := sparse.DampedWalk(gs, 0.85, teleport, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.L1Diff(x, jacobi); d > 1e-10 {
		t.Errorf("Gauss–Seidel fixed point %g from the Jacobi one", d)
	}
	if v.CitationTransition() != gs {
		t.Error("citation operator not cached")
	}
}

// TestSolverViewStructure verifies the relabelled citation graph and
// years vector: solver article fwd[p] must carry original article p's
// year, and every original edge u→v must appear as fwd[u]→fwd[v].
func TestSolverViewStructure(t *testing.T) {
	n := buildHubbed(t, 60)
	v := n.SolverView()
	fwd := v.Perm().Fwd()
	if err := v.Citations.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.Citations.NumEdges() != n.Citations.NumEdges() {
		t.Fatalf("edges %d vs %d", v.Citations.NumEdges(), n.Citations.NumEdges())
	}
	for p, y := range n.Years {
		if v.Years[fwd[p]] != y {
			t.Fatalf("year of article %d not carried to solver id %d", p, fwd[p])
		}
		if float64(v.YearColumn[fwd[p]]) != y {
			t.Fatalf("integer year of article %d not carried to solver id %d", p, fwd[p])
		}
	}
	type edge struct{ u, v graph.NodeID }
	permEdges := make(map[edge]bool)
	v.Citations.VisitEdges(func(u, w graph.NodeID) {
		permEdges[edge{u, w}] = true
	})
	n.Citations.VisitEdges(func(u, w graph.NodeID) {
		if !permEdges[edge{fwd[u], fwd[w]}] {
			t.Fatalf("edge %d->%d missing as %d->%d", u, w, fwd[u], fwd[w])
		}
	})
}

// TestSolverViewGathersMatchBase runs the view's scaled gather kernels
// on the solver-order image of a score vector and checks them against
// the gathers written out over the network's accessors in original
// order: the per-author and per-venue outputs must agree, because
// those axes are untouched by the article relabelling.
func TestSolverViewGathersMatchBase(t *testing.T) {
	n := buildHubbed(t, 60)
	v := n.SolverView()
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, n.NumArticles())
	for i := range x {
		x[i] = rng.Float64()
	}
	xp := v.Perm().Applied(x)

	const tol = 1e-13
	baseA := make([]float64, n.NumAuthors())
	viewA := make([]float64, n.NumAuthors())
	var leakBase float64
	for p := range x {
		if len(n.ArticleAuthors(corpus.ArticleID(p))) == 0 {
			leakBase += x[p]
		}
	}
	for a := range baseA {
		arts := n.AuthorArticles(corpus.AuthorID(a))
		for _, p := range arts {
			baseA[a] += x[p] / float64(len(n.ArticleAuthors(p)))
		}
		if len(arts) > 0 {
			baseA[a] /= float64(len(arts))
		}
	}
	leakView := v.GatherArticlesToAuthorsScaledPar(nil, viewA, xp)
	if math.Abs(leakBase-leakView) > tol {
		t.Errorf("author leak %v vs %v", leakView, leakBase)
	}
	for a := range baseA {
		if math.Abs(baseA[a]-viewA[a]) > tol {
			t.Errorf("author %d: %v vs %v", a, viewA[a], baseA[a])
		}
	}

	baseV := make([]float64, n.NumVenues())
	viewV := make([]float64, n.NumVenues())
	leakBase = 0
	for p := range x {
		if n.ArticleVenue(corpus.ArticleID(p)) == corpus.NoVenue {
			leakBase += x[p]
		}
	}
	for vn := range baseV {
		arts := n.VenueArticles(corpus.VenueID(vn))
		for _, p := range arts {
			baseV[vn] += x[p]
		}
		if len(arts) > 0 {
			baseV[vn] /= float64(len(arts))
		}
	}
	leakView = v.GatherArticlesToVenuesScaledPar(nil, viewV, xp)
	if math.Abs(leakBase-leakView) > tol {
		t.Errorf("venue leak %v vs %v", leakView, leakBase)
	}
	for vn := range baseV {
		if math.Abs(baseV[vn]-viewV[vn]) > tol {
			t.Errorf("venue %d: %v vs %v", vn, viewV[vn], baseV[vn])
		}
	}
}

// TestSolverViewBlendLayersMatchBase evaluates the inline blend-layer
// descriptors at every solver article and checks them against the
// layer written out over the network's accessors at the corresponding
// original article.
func TestSolverViewBlendLayersMatchBase(t *testing.T) {
	n := buildHubbed(t, 60)
	v := n.SolverView()
	inv := v.Perm().Inv()
	rng := rand.New(rand.NewSource(13))
	authorVec := make([]float64, n.NumAuthors())
	for i := range authorVec {
		authorVec[i] = rng.Float64()
	}
	venueVec := make([]float64, n.NumVenues())
	for i := range venueVec {
		venueVec[i] = rng.Float64()
	}
	viewAuthors := v.AuthorBlendLayer(authorVec)
	viewVenues := v.VenueBlendLayer(venueVec)
	for np := 0; np < n.NumArticles(); np++ {
		op := corpus.ArticleID(inv[np])
		var got, want float64
		for _, id := range viewAuthors.Idx[viewAuthors.Off[np]:viewAuthors.Off[np+1]] {
			got += viewAuthors.Vec[id]
		}
		for _, a := range n.ArticleAuthors(op) {
			want += authorVec[a]
		}
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("author layer at solver %d (orig %d): %v vs %v", np, op, got, want)
		}
		got, want = 0, 0
		if id := viewVenues.Of[np]; id >= 0 {
			got = viewVenues.Vec[id]
		}
		if vn := n.ArticleVenue(op); vn != corpus.NoVenue {
			want = venueVec[vn]
		}
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("venue layer at solver %d (orig %d): %v vs %v", np, op, got, want)
		}
	}
}

// TestGrowRebuildsSolverView grows a network with a back-dated article
// and checks the grown network projects through the NEW store's
// permutation rather than carrying the stale view.
func TestGrowRebuildsSolverView(t *testing.T) {
	old := buildHubbed(t, 40)
	_ = old.SolverView() // force the old view into existence
	b := old.Store().Thaw()
	// An article older than the rest of the corpus sorts to solver
	// row 0 and moves every other row up.
	first, err := b.AddArticle(corpus.ArticleMeta{Key: "backdated", Year: 1980, Venue: corpus.NoVenue})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 40; i += 3 {
		if err := b.AddCitation(corpus.ArticleID(i), first); err != nil {
			t.Fatal(err)
		}
	}
	s2 := b.Freeze()
	n2 := Grow(old, s2)
	v2 := n2.SolverView()
	if v2 == old.SolverView() {
		t.Fatal("grown network carried the stale solver view")
	}
	fwd := s2.SolverPermutation().Fwd()
	if !slices.Equal(v2.Perm().Fwd(), fwd) {
		t.Error("grown view does not use the new store permutation")
	}
	if fwd[first] != 0 {
		t.Errorf("the back-dated article should lead the solver order, fwd[%d] = %d", first, fwd[first])
	}
}

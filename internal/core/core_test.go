package core

import (
	"errors"
	"math"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/eval"
	"scholarrank/internal/graph"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
	"scholarrank/internal/temporal"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// fixture builds a small corpus exercising every layer:
//
//	p0 2000 venue=v author=star — cited by p1,p2,p3,p4
//	p1 2002 venue=v authors=star,other — cited by p3
//	p2 2004 venue=v author=star — cited by p4
//	p3 2006 (no venue/authors)
//	p4 2008 (no venue/authors)
//	p5 2010 author=star — brand new, uncited
//	p6 2010 (bare) — brand new, uncited, no authors
func fixture(t testing.TB) *hetnet.Network {
	t.Helper()
	s := corpus.NewBuilder()
	star, _ := s.InternAuthor("star", "Star")
	other, _ := s.InternAuthor("other", "Other")
	v, _ := s.InternVenue("v", "Venue")
	add := func(key string, year int, venue corpus.VenueID, authors ...corpus.AuthorID) corpus.ArticleID {
		id, err := s.AddArticle(corpus.ArticleMeta{Key: key, Year: year, Venue: venue, Authors: authors})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	p0 := add("p0", 2000, v, star)
	p1 := add("p1", 2002, v, star, other)
	p2 := add("p2", 2004, v, star)
	p3 := add("p3", 2006, corpus.NoVenue)
	p4 := add("p4", 2008, corpus.NoVenue)
	add("p5", 2010, corpus.NoVenue, star)
	add("p6", 2010, corpus.NoVenue)
	for _, c := range [][2]corpus.ArticleID{
		{p1, p0}, {p2, p0}, {p3, p0}, {p4, p0}, {p3, p1}, {p4, p2},
	} {
		if err := s.AddCitation(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	return hetnet.Build(s.Freeze())
}

func TestDefaultOptionsValid(t *testing.T) {
	if err := DefaultOptions().validate(); err != nil {
		t.Fatalf("DefaultOptions invalid: %v", err)
	}
}

func TestRankBasics(t *testing.T) {
	net := fixture(t)
	sc, err := Rank(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := net.NumArticles()
	for name, vec := range map[string][]float64{
		"Importance": sc.Importance, "Prestige": sc.Prestige,
		"Popularity": sc.Popularity, "Hetero": sc.Hetero,
	} {
		if len(vec) != n {
			t.Errorf("%s length = %d, want %d", name, len(vec), n)
		}
	}
	if !sc.PrestigeStats.Converged || !sc.HeteroStats.Converged {
		t.Errorf("stages did not converge: %+v %+v", sc.PrestigeStats, sc.HeteroStats)
	}
	for i, v := range sc.Importance {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Errorf("Importance[%d] = %v outside [0,1]", i, v)
		}
	}
	// On a 7-article fixture the global winner depends on percentile
	// granularity (recency terms dominate tiny corpora); assert the
	// robust within-cohort orderings instead: the heavily cited
	// foundational article beats its less-cited mid-timeline peers,
	// and the new star-authored article beats the new bare article.
	if sc.Importance[0] <= sc.Importance[3] || sc.Importance[0] <= sc.Importance[4] {
		t.Errorf("foundational article does not beat mid articles: %v", sc.Importance)
	}
	if sc.Importance[5] <= sc.Importance[6] {
		t.Errorf("star-authored new article does not beat bare new article: %v vs %v",
			sc.Importance[5], sc.Importance[6])
	}
	if len(rank.TopK(sc.Importance, 3)) != 3 {
		t.Error("TopK failed on importance vector")
	}
}

func TestRankEmptyNetwork(t *testing.T) {
	sc, err := Rank(hetnet.Build(corpus.NewBuilder().Freeze()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Importance) != 0 {
		t.Errorf("non-empty scores: %+v", sc)
	}
}

func TestOptionValidation(t *testing.T) {
	net := fixture(t)
	cases := map[string]func(*Options){
		"negative rhoGap":  func(o *Options) { o.RhoGap = -1 },
		"negative rhoFade": func(o *Options) { o.RhoFade = -1 },
		"nan rhoRecency":   func(o *Options) { o.RhoRecency = math.NaN() },
		"damping 0":        func(o *Options) { o.Damping = 0 },
		"damping 1":        func(o *Options) { o.Damping = 1 },
		"negative lambda":  func(o *Options) { o.LambdaCite = -0.1; o.LambdaTime = 0.75 },
		"lambdas != 1":     func(o *Options) { o.LambdaCite = 0.9 },
		"zero lambdaTime":  func(o *Options) { o.LambdaCite += o.LambdaTime; o.LambdaTime = 0 },
		"negative weight":  func(o *Options) { o.WPrestige = -1 },
		"all zero weights": func(o *Options) { o.WPrestige, o.WPopularity, o.WHetero = 0, 0, 0 },
		"bad ensemble":     func(o *Options) { o.Ensemble = EnsembleKind(99) },
		"bad norm":         func(o *Options) { o.Normalization = NormKind(99) },
	}
	for name, mutate := range cases {
		opts := DefaultOptions()
		mutate(&opts)
		if _, err := Rank(net, opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", name, err)
		}
	}
}

func TestPopularityIsDecayedCitations(t *testing.T) {
	net := fixture(t)
	opts := DefaultOptions()
	pop := computePopularity(net, opts)
	// p0 cited by p1(2002), p2(2004), p3(2006), p4(2008); now=2010.
	rho := opts.RhoRecency
	want := math.Exp(-rho*8) + math.Exp(-rho*6) + math.Exp(-rho*4) + math.Exp(-rho*2)
	if !almostEq(pop[0], want, 1e-12) {
		t.Errorf("pop[0] = %v, want %v", pop[0], want)
	}
	if pop[5] != 0 || pop[6] != 0 {
		t.Errorf("uncited articles have popularity: %v %v", pop[5], pop[6])
	}
}

func TestPopularityNoDecayIsCitationCount(t *testing.T) {
	net := fixture(t)
	opts := DefaultOptions()
	opts.DisableTimeDecay = true
	pop := computePopularity(net, opts.effective())
	in := net.Citations.InDegrees()
	for i := range pop {
		if !almostEq(pop[i], float64(in[i]), 1e-12) {
			t.Errorf("pop[%d] = %v, in-degree %d", i, pop[i], in[i])
		}
	}
}

func TestPrestigeNoDecayEqualsPlainPageRank(t *testing.T) {
	net := fixture(t)
	opts := DefaultOptions()
	opts.DisableTimeDecay = true
	prestige, err := RankScorer(net, ScorerPrestige, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RankScorer(net, ScorerPageRank, ScorerOptions{"damping": opts.Damping}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxDiff(prestige.RawPrestige, pr.Importance); d > 1e-9 {
		t.Errorf("no-decay prestige deviates from PageRank by %v", d)
	}
}

// gapWalk is the gap-decayed citation walk written out edge by edge:
// the edge u→v, gap being the citing article's year minus the cited
// one's, weighs exp(-rho·max(0, gap)) and carries the share
// weight/Σ_out(u) of u's mass — the oracle of the engine's gap
// operators (Engine.gapTransition), sharing no code with them.
type gapWalk struct {
	edges    []gapEdge // the citation graph's edges, in row order
	dangling []graph.NodeID
}

type gapEdge struct {
	u, v        graph.NodeID
	weight, out float64 // the edge's weight and its source's out-weight
}

// newGapWalk writes out the gap walk of cites at decay rate rho.
func newGapWalk(cites *graph.Graph, years []float64, rho float64) (*gapWalk, error) {
	kernel, err := temporal.NewExponential(rho)
	if err != nil {
		return nil, err
	}
	g := &gapWalk{}
	for u := graph.NodeID(0); int(u) < cites.NumNodes(); u++ {
		row := cites.Neighbors(u)
		if len(row) == 0 {
			g.dangling = append(g.dangling, u)
			continue
		}
		first := len(g.edges)
		var out float64
		for _, v := range row {
			w := kernel.Weight(math.Max(0, years[u]-years[v]))
			g.edges = append(g.edges, gapEdge{u: u, v: v, weight: w})
			out += w
		}
		for i := first; i < len(g.edges); i++ {
			g.edges[i].out = out
		}
	}
	return g, nil
}

// weight returns the weight of the edge u→v, or 0 if there is none.
func (g *gapWalk) weight(u, v graph.NodeID) float64 {
	for _, e := range g.edges {
		if e.u == u && e.v == v {
			return e.weight
		}
	}
	return 0
}

// step is one Jacobi step of the damped walk over the gap weights,
//
//	dst = damping·(Mᵀsrc + dangling(src)·teleport) + (1-damping)·teleport
//
// returning the L1 residual ||dst - src||₁.
func (g *gapWalk) step(dst, src, teleport []float64, damping float64) float64 {
	var dm float64
	for _, u := range g.dangling {
		dm += src[u]
	}
	for v := range dst {
		dst[v] = (damping*dm + 1 - damping) * teleport[v]
	}
	for _, e := range g.edges {
		dst[e.v] += damping * src[e.u] * (e.weight / e.out)
	}
	return sparse.L1Diff(dst, src)
}

func TestGapWeightedGraph(t *testing.T) {
	net := fixture(t)
	g, err := newGapWalk(net.Citations, net.Years, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// p4(2008)->p0(2000): gap 8; p4->p2(2004): gap 4. The fresher
	// citation must carry more weight.
	wOld := g.weight(4, 0)
	wNew := g.weight(4, 2)
	if wNew <= wOld {
		t.Errorf("gap weighting inverted: new %v <= old %v", wNew, wOld)
	}
	if !almostEq(wOld, math.Exp(-0.2*8), 1e-12) {
		t.Errorf("wOld = %v", wOld)
	}
	// rho = 0 reproduces unit weights.
	g0, err := newGapWalk(net.Citations, net.Years, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w := g0.weight(4, 0); w != 1 {
		t.Errorf("rho=0 weight = %v", w)
	}
}

func TestHeteroColdStartAuthorInheritance(t *testing.T) {
	net := fixture(t)
	sc, err := RankScorer(net, ScorerHetero, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := sc.Hetero
	if !sc.HeteroStats.Converged {
		t.Fatalf("hetero did not converge: %+v", sc.HeteroStats)
	}
	// p5 (star author, uncited) must beat p6 (bare, uncited, same year):
	// the only difference is author-track-record inheritance.
	if h[5] <= h[6] {
		t.Errorf("author inheritance missing: h[5]=%v h[6]=%v", h[5], h[6])
	}
}

func TestPrestigeFadeDemotesOldArticles(t *testing.T) {
	net := fixture(t)
	noFade := DefaultOptions()
	noFade.RhoFade = 0
	faded := DefaultOptions()
	faded.RhoFade = 0.5
	a, err := Rank(net, noFade)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Rank(net, faded)
	if err != nil {
		t.Fatal(err)
	}
	// p0 (2000) is 10 years older than p5 (2010): fading must shrink
	// p0's prestige relative to p5's.
	relNoFade := a.Prestige[0] / a.Prestige[5]
	relFaded := b.Prestige[0] / b.Prestige[5]
	if relFaded >= relNoFade {
		t.Errorf("fade did not demote old prestige: %v vs %v", relFaded, relNoFade)
	}
	// Fading by exp(-rho·age) with age(p5)=0 leaves p5 untouched.
	if math.Abs(b.Prestige[5]-a.Prestige[5]) > 1e-12 {
		t.Errorf("fade changed newest article: %v vs %v", b.Prestige[5], a.Prestige[5])
	}
}

func TestAblationSwitches(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableAuthors = true
	opts.DisableVenues = true
	eff := opts.effective()
	if eff.LambdaAuthor != 0 || eff.LambdaVenue != 0 {
		t.Errorf("layers not disabled: %+v", eff)
	}
	sum := eff.LambdaCite + eff.LambdaAuthor + eff.LambdaVenue + eff.LambdaTime
	if !almostEq(sum, 1, 1e-12) {
		t.Errorf("effective lambdas sum to %v", sum)
	}
	net := fixture(t)
	if _, err := Rank(net, opts); err != nil {
		t.Errorf("ablated rank failed: %v", err)
	}
}

func TestEnsembleOrderingInequality(t *testing.T) {
	// For equal weights, harmonic <= geometric <= arithmetic
	// elementwise (classical mean inequality), up to the epsilon
	// regularisation.
	net := fixture(t)
	var res [3][]float64
	for i, kind := range []EnsembleKind{Harmonic, Geometric, Arithmetic} {
		opts := DefaultOptions()
		opts.Ensemble = kind
		sc, err := Rank(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		res[i] = sc.Importance
	}
	for i := range res[0] {
		if res[0][i] > res[1][i]+1e-6 || res[1][i] > res[2][i]+1e-6 {
			t.Errorf("mean inequality violated at %d: H=%v G=%v A=%v",
				i, res[0][i], res[1][i], res[2][i])
		}
	}
}

func TestEnsembleWeightsShiftRanking(t *testing.T) {
	net := fixture(t)
	prestigeOnly := DefaultOptions()
	prestigeOnly.Ensemble = Arithmetic
	prestigeOnly.WPrestige, prestigeOnly.WPopularity, prestigeOnly.WHetero = 1, 0, 0
	popOnly := DefaultOptions()
	popOnly.Ensemble = Arithmetic
	popOnly.WPrestige, popOnly.WPopularity, popOnly.WHetero = 0, 1, 0
	a, err := Rank(net, prestigeOnly)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Rank(net, popOnly)
	if err != nil {
		t.Fatal(err)
	}
	// Prestige-only equals the normalised prestige signal (rank
	// percentiles under the default normalisation).
	pn := eval.Percentiles(a.Prestige)
	if d := sparse.MaxDiff(a.Importance, pn); d > 1e-12 {
		t.Errorf("prestige-only deviates from prestige percentiles by %v", d)
	}
	qn := eval.Percentiles(b.Popularity)
	if d := sparse.MaxDiff(b.Importance, qn); d > 1e-12 {
		t.Errorf("popularity-only deviates from popularity percentiles by %v", d)
	}
}

func TestEnsembleKindString(t *testing.T) {
	if Harmonic.String() != "harmonic" || Arithmetic.String() != "arithmetic" || Geometric.String() != "geometric" {
		t.Error("ensemble names wrong")
	}
	if EnsembleKind(42).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

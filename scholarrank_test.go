package scholarrank_test

import (
	"math"
	"strings"
	"testing"

	"scholarrank"
)

// buildPublicFixture assembles a corpus through the public API only.
func buildPublicFixture(t testing.TB) *scholarrank.Store {
	t.Helper()
	s := scholarrank.NewBuilder()
	au, err := s.InternAuthor("au", "Author")
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.InternVenue("v", "Venue")
	if err != nil {
		t.Fatal(err)
	}
	keys := []struct {
		key  string
		year int
	}{
		{"a", 2000}, {"b", 2005}, {"c", 2010}, {"d", 2015},
	}
	ids := map[string]scholarrank.ArticleID{}
	for _, k := range keys {
		id, err := s.AddArticle(scholarrank.ArticleMeta{
			Key: k.key, Title: strings.ToUpper(k.key), Year: k.year,
			Venue: v, Authors: []scholarrank.AuthorID{au},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[k.key] = id
	}
	for _, c := range [][2]string{{"b", "a"}, {"c", "a"}, {"c", "b"}, {"d", "a"}} {
		if err := s.AddCitation(ids[c[0]], ids[c[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return s.Freeze()
}

func TestPublicRankPipeline(t *testing.T) {
	s := buildPublicFixture(t)
	net := scholarrank.BuildNetwork(s)
	scores, err := scholarrank.Rank(net, scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(scores.Importance) != 4 {
		t.Fatalf("scores length = %d", len(scores.Importance))
	}
	top := scholarrank.TopK(scores.Importance, 1)
	if id, _ := s.ArticleByKey("a"); top[0] != int(id) {
		t.Errorf("top article = %d, want the most-cited one", top[0])
	}
}

func TestPublicBaselines(t *testing.T) {
	s := buildPublicFixture(t)
	net := scholarrank.BuildNetwork(s)

	opts := scholarrank.DefaultOptions()
	rankWith := func(name string, sopts scholarrank.ScorerOptions) *scholarrank.Scores {
		t.Helper()
		sc, err := scholarrank.RankScorer(net, name, sopts, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sc.Importance) != 4 {
			t.Fatalf("%s: %d scores", name, len(sc.Importance))
		}
		return sc
	}
	if cc := rankWith("citecount", nil); cc.Importance[0] != 3 {
		t.Errorf("citecount[a] = %v", cc.Importance[0])
	}
	var sum float64
	for _, v := range rankWith("pagerank", nil).Importance {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("pagerank sum = %v", sum)
	}
	for _, name := range []string{"yearnorm", "agenorm", "hits", "sceas", "timedpr", "futurerank", "ewpr", "prank"} {
		rankWith(name, nil)
	}
	rankWith("citerank", scholarrank.ScorerOptions{"rho": 0.3})
	if cr := rankWith("corank", nil); len(cr.Authors) != s.NumAuthors() {
		t.Errorf("corank authors = %d", len(cr.Authors))
	}
	if _, err := scholarrank.RankScorer(net, "pagerank", scholarrank.ScorerOptions{"damping": 1}, opts); err == nil {
		t.Error("pagerank damping 1 accepted")
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestPublicCodecRoundTrip(t *testing.T) {
	s := buildPublicFixture(t)
	var sb strings.Builder
	if err := scholarrank.WriteJSONL(&sb, s); err != nil {
		t.Fatal(err)
	}
	got, err := scholarrank.ReadJSONL(strings.NewReader(sb.String()), scholarrank.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumArticles() != s.NumArticles() || got.NumCitations() != s.NumCitations() {
		t.Errorf("round trip: %d/%d vs %d/%d articles/citations",
			got.NumArticles(), got.NumCitations(), s.NumArticles(), s.NumCitations())
	}
	sb.Reset()
	if err := scholarrank.WriteTSV(&sb, s); err != nil {
		t.Fatal(err)
	}
	if _, err := scholarrank.ReadTSV(strings.NewReader(sb.String()), scholarrank.ReadOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicGeneratorAndHoldout(t *testing.T) {
	cfg := scholarrank.DefaultGeneratorConfig(1200)
	cfg.Seed = 5
	gc, err := scholarrank.GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	minY, maxY := gc.Store.YearRange()
	hold, err := scholarrank.SplitByYear(gc.Store, minY+(maxY-minY)*8/10)
	if err != nil {
		t.Fatal(err)
	}
	net := scholarrank.BuildNetwork(hold.Train)
	scores, err := scholarrank.Rank(net, scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	acc, pairs, err := scholarrank.PairwiseAccuracy(scores.Importance, hold.FutureCites, nil, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if pairs == 0 {
		t.Fatal("no informative pairs")
	}
	if acc <= 0.55 {
		t.Errorf("public pipeline accuracy = %v, want > 0.55", acc)
	}
}

func TestPublicMetrics(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 3, 2}
	tau, err := scholarrank.KendallTau(a, b)
	if err != nil || math.Abs(tau-1.0/3) > 1e-12 {
		t.Errorf("KendallTau = %v err %v", tau, err)
	}
	rho, err := scholarrank.Spearman(a, a)
	if err != nil || rho != 1 {
		t.Errorf("Spearman = %v", rho)
	}
	v, err := scholarrank.NDCG(a, a, 3)
	if err != nil || math.Abs(v-1) > 1e-12 {
		t.Errorf("NDCG = %v", v)
	}
	if r := scholarrank.RecallAtK(a, map[int]bool{2: true}, 1); r != 1 {
		t.Errorf("RecallAtK = %v", r)
	}
	pct := scholarrank.Percentiles(a)
	if pct[2] != 1 {
		t.Errorf("Percentiles = %v", pct)
	}
	rbo, err := scholarrank.RBO(a, a, 0.9)
	if err != nil || math.Abs(rbo-1) > 1e-12 {
		t.Errorf("RBO = %v err %v", rbo, err)
	}
	lo, hi, err := scholarrank.BootstrapMeanCI([]float64{1, 2, 3, 4}, 0.9, 200, nil)
	if err != nil || lo > hi {
		t.Errorf("BootstrapMeanCI = [%v, %v] err %v", lo, hi, err)
	}
}

func TestPublicEntityRanking(t *testing.T) {
	s := buildPublicFixture(t)
	net := scholarrank.BuildNetwork(s)
	scores, err := scholarrank.Rank(net, scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	authors, err := scholarrank.AuthorRank(net, scores.Importance, scholarrank.EntityRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(authors) != s.NumAuthors() {
		t.Errorf("authors = %d", len(authors))
	}
	venues, err := scholarrank.VenueRank(net, scores.Importance, scholarrank.EntityRankOptions{Aggregate: scholarrank.AggSum})
	if err != nil {
		t.Fatal(err)
	}
	if len(venues) != s.NumVenues() {
		t.Errorf("venues = %d", len(venues))
	}
}

func TestPublicRankHistoryAndExplain(t *testing.T) {
	cfg := scholarrank.DefaultGeneratorConfig(800)
	cfg.Seed = 55
	gc, err := scholarrank.GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	minY, maxY := gc.Store.YearRange()
	key := gc.Store.Article(0).Key
	hist, err := scholarrank.RankHistory(gc.Store, []string{key}, []int{(minY + maxY) / 2, maxY},
		scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || len(hist[0].Snapshots) == 0 {
		t.Fatalf("history = %+v", hist)
	}

	net := scholarrank.BuildNetwork(gc.Store)
	scores, err := scholarrank.Rank(net, scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := scores.Explain(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Signals) != 3 || ex.Dominant == "" {
		t.Errorf("explanation = %+v", ex)
	}
}

func TestPublicSCORPRoundTrip(t *testing.T) {
	s := buildPublicFixture(t)
	var buf strings.Builder
	if err := scholarrank.WriteSCORP(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := scholarrank.ReadSCORP(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumArticles() != s.NumArticles() || got.NumCitations() != s.NumCitations() {
		t.Errorf("SCORP round trip changed counts")
	}
}

func TestPublicAdvancedSurface(t *testing.T) {
	cfg := scholarrank.DefaultGeneratorConfig(1000)
	cfg.Seed = 66
	gc, err := scholarrank.GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := scholarrank.BuildNetwork(gc.Store)

	// Engine + Explainer.
	eng := scholarrank.NewEngine(net)
	scores, err := eng.Rank(scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex := scholarrank.NewExplainer(scores)
	if _, err := ex.Explain(0, 1); err != nil {
		t.Fatal(err)
	}

	// Group-normalised counts (single group = year normalisation).
	groups := make([]int, gc.Store.NumArticles())
	gn, err := scholarrank.GroupNormCiteCount(net, groups)
	if err != nil {
		t.Fatal(err)
	}
	yn, err := scholarrank.RankScorer(net, "yearnorm", nil, scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(gn, yn.Importance); d > 1e-12 {
		t.Errorf("single-group GroupNorm deviates from YearNorm by %v", d)
	}

	// Related-article index.
	ri, err := scholarrank.NewRelatedIndex(net, scholarrank.RelatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ri.Related(0, 3); err != nil {
		t.Fatal(err)
	}

	// Retrieval blending.
	wopts := scholarrank.DefaultWorkloadOptions()
	wopts.Queries = 5
	queries, err := scholarrank.BuildWorkload(net, gc.Quality, wopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scholarrank.BlendRetrieval(queries[0], scores.Importance, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := scholarrank.MeanBlendNDCG(queries, scores.Importance, 0.5, 10); err != nil {
		t.Fatal(err)
	}
	if _, sweep, err := scholarrank.BestBlendLambda(queries, scores.Importance, 10); err != nil || len(sweep) != 11 {
		t.Fatalf("BestBlendLambda: %v (%d points)", err, len(sweep))
	}

	// Citation dynamics.
	series := scholarrank.CitationSeries(gc.Store)
	if len(series) != gc.Store.NumArticles() {
		t.Fatalf("series = %d", len(series))
	}
	if _, err := scholarrank.BeautyCoefficient(series[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scholarrank.SleepingBeauties(gc.Store, 3); err != nil {
		t.Fatal(err)
	}

	// Decay constructors and stats.
	if _, err := scholarrank.NewExponentialDecay(0.3); err != nil {
		t.Fatal(err)
	}
	st := scholarrank.ComputeGraphStats(net.Citations)
	if st.Nodes != gc.Store.NumArticles() {
		t.Errorf("stats nodes = %d", st.Nodes)
	}
}

func TestPublicGraphUtilities(t *testing.T) {
	s := buildPublicFixture(t)
	g := s.CitationGraph()
	st := scholarrank.ComputeGraphStats(g)
	if st.Nodes != 4 || st.Edges != 4 {
		t.Errorf("stats = %+v", st)
	}
	k, err := scholarrank.NewExponentialDecay(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if w := k.Weight(0); w != 1 {
		t.Errorf("decay Weight(0) = %v", w)
	}
	sampled, err := scholarrank.SampleCitations(s, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.NumArticles() != s.NumArticles() {
		t.Errorf("sampled articles = %d", sampled.NumArticles())
	}
}

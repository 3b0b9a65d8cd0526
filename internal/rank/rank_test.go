package rank

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scholarrank/internal/graph"
	"scholarrank/internal/sparse"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	got := TopK(scores, 3)
	// Tie between 1 and 3 breaks toward the lower index first.
	want := []int{1, 3, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopK = %v, want %v", got, want)
	}
	if got := TopK(scores, 100); len(got) != 5 {
		t.Errorf("clamped TopK length = %d", len(got))
	}
	if got := TopK(scores, 0); got != nil {
		t.Errorf("TopK(0) = %v", got)
	}
	if got := TopK(nil, 3); got != nil {
		t.Errorf("TopK(nil) = %v", got)
	}
}

func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 500)
	for i := range scores {
		scores[i] = math.Floor(rng.Float64()*50) / 50 // force ties
	}
	got := TopK(scores, 20)
	if len(got) != 20 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if scores[a] < scores[b] || (scores[a] == scores[b] && a > b) {
			t.Fatalf("order violated at %d: idx %d (%v) before %d (%v)", i, a, scores[a], b, scores[b])
		}
	}
	// Nothing outside the top-k may beat the last element.
	last := got[len(got)-1]
	inTop := make(map[int]bool, len(got))
	for _, i := range got {
		inTop[i] = true
	}
	for i, s := range scores {
		if !inTop[i] && s > scores[last] {
			t.Fatalf("item %d (%v) excluded but beats last (%v)", i, s, scores[last])
		}
	}
}

// chain: 0->1 (1 is dangling).
func chain2(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(2, []graph.NodeID{0}, []graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCiteCount(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.NodeID{0, 1, 2}, []graph.NodeID{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := CiteCount(g)
	want := []float64{0, 1, 2}
	if !reflect.DeepEqual(r.Scores, want) {
		t.Errorf("CiteCount = %v", r.Scores)
	}
}

func TestYearNormCiteCount(t *testing.T) {
	// Two articles from 2000 with 4 and 0 citations, one from 2010
	// with 2 citations. Year-norm should put the 2010 article above
	// the zero-cited 2000 one and make eras comparable.
	g, err := graph.FromEdges(7,
		[]graph.NodeID{3, 4, 5, 6, 3, 4},
		[]graph.NodeID{0, 0, 0, 0, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	years := []float64{2000, 2000, 2010, 2010, 2011, 2011, 2011}
	r := YearNormCiteCount(g, years)
	// Article 0: 4 cites, year-2000 mean (4+0+1)/2 = 2.5 -> 1.6.
	if !almostEq(r.Scores[0], 1.6, 1e-12) {
		t.Errorf("scores[0] = %v, want 1.6", r.Scores[0])
	}
	// Article 2: 2 cites, year-2010 mean (2+0+1)/2 = 1.5 -> 1.333.
	if !almostEq(r.Scores[2], 2/1.5, 1e-12) {
		t.Errorf("scores[2] = %v", r.Scores[2])
	}
	if r.Scores[1] != 0 {
		t.Errorf("scores[1] = %v", r.Scores[1])
	}
}

func TestGroupNormCiteCount(t *testing.T) {
	// Two groups, same year. Group 0: articles 0 (2 cites) and 1 (0);
	// group 1: article 2 (2 cites) alone.
	g, err := graph.FromEdges(6,
		[]graph.NodeID{3, 4, 3, 4},
		[]graph.NodeID{0, 0, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	groups := []int{0, 0, 1, 2, 2, 2}
	years := []float64{2000, 2000, 2000, 2005, 2005, 2005}
	r, err := GroupNormCiteCount(g, groups, years)
	if err != nil {
		t.Fatal(err)
	}
	// Article 0: cell mean (2+0+1)/2 = 1.5 -> 2/1.5.
	if !almostEq(r[0], 2/1.5, 1e-12) {
		t.Errorf("scores[0] = %v", r[0])
	}
	// Article 2: alone in its cell, mean (2+1)/1 = 3 -> 2/3.
	if !almostEq(r[2], 2.0/3, 1e-12) {
		t.Errorf("scores[2] = %v", r[2])
	}
	// With all groups equal, GroupNorm equals YearNorm.
	same := []int{0, 0, 0, 0, 0, 0}
	gn, err := GroupNormCiteCount(g, same, years)
	if err != nil {
		t.Fatal(err)
	}
	yn := YearNormCiteCount(g, years)
	for i := range gn {
		if !almostEq(gn[i], yn.Scores[i], 1e-12) {
			t.Errorf("GroupNorm != YearNorm at %d: %v vs %v", i, gn[i], yn.Scores[i])
		}
	}
	// Validation.
	if _, err := GroupNormCiteCount(g, groups[:2], years); !errors.Is(err, ErrBadParam) {
		t.Errorf("short groups: %v", err)
	}
}

func TestAgeNormCiteCount(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.NodeID{1, 2}, []graph.NodeID{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	years := []float64{2000, 2009, 2010}
	r := AgeNormCiteCount(g, years, 2010)
	if !almostEq(r.Scores[0], 0.2, 1e-12) { // 2 cites / 10 years
		t.Errorf("scores[0] = %v", r.Scores[0])
	}
	// Age clamps at 1: a brand-new cited article is not divided by 0.
	if r.Scores[2] != 0 {
		t.Errorf("scores[2] = %v", r.Scores[2])
	}
}

func TestPageRankTwoNodeOracle(t *testing.T) {
	// Analytic solution for 0->1 with dangling redistribution:
	// x1 = 0.13875/0.21375, x0 = 1-x1.
	r, err := PageRank(chain2(t), PageRankOptions{Iter: sparse.IterOptions{Tol: 1e-13}})
	if err != nil {
		t.Fatal(err)
	}
	wantX1 := 0.13875 / 0.21375
	if !almostEq(r.Scores[1], wantX1, 1e-9) {
		t.Errorf("x1 = %v, want %v", r.Scores[1], wantX1)
	}
	if !almostEq(sparse.Sum(r.Scores), 1, 1e-9) {
		t.Errorf("sum = %v", sparse.Sum(r.Scores))
	}
	if !r.Stats.Converged {
		t.Error("did not converge")
	}
}

func TestPageRankCycleUniform(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.NodeID{0, 1, 2}, []graph.NodeID{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	r, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range r.Scores {
		if !almostEq(s, 1.0/3, 1e-9) {
			t.Errorf("scores[%d] = %v, want 1/3", i, s)
		}
	}
}

func TestPageRankValidation(t *testing.T) {
	g := chain2(t)
	if _, err := PageRank(g, PageRankOptions{Damping: 1.5}); !errors.Is(err, ErrBadParam) {
		t.Errorf("damping 1.5: %v", err)
	}
	if _, err := PageRank(g, PageRankOptions{Damping: -0.1}); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative damping: %v", err)
	}
	if _, err := PageRank(g, PageRankOptions{Personalization: []float64{1}}); !errors.Is(err, ErrBadParam) {
		t.Errorf("short personalization: %v", err)
	}
	if _, err := PageRank(g, PageRankOptions{Personalization: []float64{-1, 2}}); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative personalization: %v", err)
	}
	if _, err := PageRank(g, PageRankOptions{Personalization: []float64{0, 0}}); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero personalization: %v", err)
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	r, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scores) != 0 || !r.Stats.Converged {
		t.Errorf("empty result: %+v", r)
	}
}

func TestPageRankPersonalizationShiftsMass(t *testing.T) {
	// Star: 1..4 all cite 0. Personalizing on node 4 must raise node
	// 4's score relative to uniform teleport.
	g, err := graph.FromEdges(5, []graph.NodeID{1, 2, 3, 4}, []graph.NodeID{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	base, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pers := []float64{0, 0, 0, 0, 1}
	biased, err := PageRank(g, PageRankOptions{Personalization: pers})
	if err != nil {
		t.Fatal(err)
	}
	if biased.Scores[4] <= base.Scores[4] {
		t.Errorf("personalization did not raise node 4: %v vs %v", biased.Scores[4], base.Scores[4])
	}
}

func TestHITSStarAuthority(t *testing.T) {
	// Nodes 1..4 cite node 0: node 0 is the unique authority; the
	// citers are the hubs.
	g, err := graph.FromEdges(5, []graph.NodeID{1, 2, 3, 4}, []graph.NodeID{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	r, err := HITS(g, sparse.IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r.Authorities[0], 1, 1e-9) {
		t.Errorf("authority[0] = %v, want 1", r.Authorities[0])
	}
	if r.Hubs[0] != 0 {
		t.Errorf("hub[0] = %v, want 0", r.Hubs[0])
	}
	for i := 1; i < 5; i++ {
		if !almostEq(r.Hubs[i], 0.25, 1e-9) {
			t.Errorf("hub[%d] = %v, want 0.25", i, r.Hubs[i])
		}
	}
	if !almostEq(sparse.Sum(r.Authorities), 1, 1e-9) {
		t.Errorf("authorities sum = %v", sparse.Sum(r.Authorities))
	}
}

func TestHITSEmpty(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if _, err := HITS(g, sparse.IterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := HITSAuthority(g, sparse.IterOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestCiteRankFavoursRecent(t *testing.T) {
	// Symmetric pair: 2->0, 3->1 with identical in-degrees, but 1 and
	// 3 are much newer. CiteRank must rank 1 above 0.
	g, err := graph.FromEdges(4, []graph.NodeID{2, 3}, []graph.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	years := []float64{1990, 2018, 1991, 2019}
	r, err := CiteRank(g, years, 2020, CiteRankOptions{Rho: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scores[1] <= r.Scores[0] {
		t.Errorf("recent article not favoured: %v", r.Scores)
	}
}

func TestCiteRankZeroRhoEqualsPageRank(t *testing.T) {
	g := chain2(t)
	years := []float64{1990, 2020}
	cr, err := CiteRank(g, years, 2020, CiteRankOptions{Rho: 0})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxDiff(cr.Scores, pr.Scores); d > 1e-9 {
		t.Errorf("rho=0 deviates from PageRank by %v", d)
	}
}

func TestCiteRankValidation(t *testing.T) {
	g := chain2(t)
	if _, err := CiteRank(g, []float64{2000}, 2020, CiteRankOptions{}); !errors.Is(err, ErrBadParam) {
		t.Errorf("short years: %v", err)
	}
	if _, err := CiteRank(g, []float64{2000, 2001}, 2020, CiteRankOptions{Rho: -1}); err == nil {
		t.Error("negative rho accepted")
	}
}

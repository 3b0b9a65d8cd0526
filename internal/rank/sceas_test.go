package rank

import (
	"errors"
	"math"
	"testing"

	"scholarrank/internal/graph"
	"scholarrank/internal/sparse"
)

func TestSceasRankChainOracle(t *testing.T) {
	// Chain 2 -> 1 -> 0 with d, b. Fixed point:
	// S(2) = 0 (no citers)
	// S(1) = (S(2)+b)·d = b·d
	// S(0) = (S(1)+b)·d = (b·d+b)·d = b·d² + b·d.
	d, b := 0.5, 1.0
	g, err := graph.FromEdges(3, []graph.NodeID{2, 1}, []graph.NodeID{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	r, err := SceasRank(g, SceasRankOptions{Decay: d, Bonus: b, BonusSet: true,
		Iter: sparse.IterOptions{Tol: 1e-14}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{b*d*d + b*d, b * d, 0}
	for i := range want {
		if math.Abs(r.Scores[i]-want[i]) > 1e-10 {
			t.Errorf("S(%d) = %v, want %v", i, r.Scores[i], want[i])
		}
	}
	if !r.Stats.Converged {
		t.Error("not converged")
	}
}

func TestSceasRankDirectBonus(t *testing.T) {
	// A single citation from a zero-score citer is still worth b·d —
	// the defining difference from damped walks with no bonus.
	g, err := graph.FromEdges(2, []graph.NodeID{1}, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	r, err := SceasRank(g, SceasRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.E // b=1, d=1/e
	if math.Abs(r.Scores[0]-want) > 1e-9 {
		t.Errorf("S(0) = %v, want %v", r.Scores[0], want)
	}
}

func TestSceasRankBonusZero(t *testing.T) {
	// With b = 0 and no initial mass, everything stays 0.
	g, err := graph.FromEdges(2, []graph.NodeID{1}, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	r, err := SceasRank(g, SceasRankOptions{Bonus: 0, BonusSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scores[0] != 0 || r.Scores[1] != 0 {
		t.Errorf("scores = %v, want zeros", r.Scores)
	}
}

func TestSceasRankCycleConverges(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.NodeID{0, 1, 2}, []graph.NodeID{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	r, err := SceasRank(g, SceasRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.Converged {
		t.Fatalf("cycle did not converge: %+v", r.Stats)
	}
	// Symmetric cycle: all scores equal, fixed point s = (s+1)d.
	want := (1 / math.E) / (1 - 1/math.E)
	for i, s := range r.Scores {
		if math.Abs(s-want) > 1e-9 {
			t.Errorf("S(%d) = %v, want %v", i, s, want)
		}
	}
}

func TestSceasRankValidation(t *testing.T) {
	g, _ := graph.FromEdges(2, []graph.NodeID{1}, []graph.NodeID{0})
	if _, err := SceasRank(g, SceasRankOptions{Decay: 1.5}); !errors.Is(err, ErrBadParam) {
		t.Errorf("decay 1.5: %v", err)
	}
	if _, err := SceasRank(g, SceasRankOptions{Decay: -0.2}); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative decay: %v", err)
	}
	if _, err := SceasRank(g, SceasRankOptions{Bonus: -1, BonusSet: true}); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative bonus: %v", err)
	}
}

func TestSceasRankEmpty(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	r, err := SceasRank(g, SceasRankOptions{})
	if err != nil || len(r.Scores) != 0 {
		t.Errorf("empty: %v %v", r, err)
	}
}

func TestTimedPageRankFadesOld(t *testing.T) {
	// Two symmetric stars of equal in-degree, one old, one recent.
	g, err := graph.FromEdges(6,
		[]graph.NodeID{2, 3, 4, 5},
		[]graph.NodeID{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	years := []float64{1980, 2018, 1985, 1985, 2019, 2019}
	r, err := TimedPageRank(g, years, 2020, 0.2, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scores[1] <= r.Scores[0] {
		t.Errorf("old article not faded: %v vs %v", r.Scores[0], r.Scores[1])
	}
	// rho = 0 must equal plain PageRank.
	r0, err := TimedPageRank(g, years, 2020, 0, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxDiff(r0.Scores, pr.Scores); d > 1e-12 {
		t.Errorf("rho=0 deviates by %v", d)
	}
}

func TestTimedPageRankValidation(t *testing.T) {
	g, _ := graph.FromEdges(2, []graph.NodeID{1}, []graph.NodeID{0})
	if _, err := TimedPageRank(g, []float64{2000, 2001}, 2020, -1, PageRankOptions{}); err == nil {
		t.Error("negative rho accepted")
	}
}

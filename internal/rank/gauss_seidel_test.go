package rank

import (
	"errors"
	"math/rand"
	"testing"

	"scholarrank/internal/graph"
	"scholarrank/internal/sparse"
)

func TestGaussSeidelMatchesPowerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 2000
	b := graph.NewBuilder(n)
	// Chronological-ish citation structure: i cites earlier j.
	for i := 1; i < n; i++ {
		for r := 0; r < 5; r++ {
			j := rng.Intn(i)
			_ = b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	g := b.Build()
	iter := sparse.IterOptions{Tol: 1e-12, MaxIter: 500}
	power, err := PageRank(g, PageRankOptions{Iter: iter})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := PageRankGaussSeidel(g, PageRankOptions{Iter: iter})
	if err != nil {
		t.Fatal(err)
	}
	if !gs.Stats.Converged {
		t.Fatalf("GS not converged: %+v", gs.Stats)
	}
	if d := sparse.MaxDiff(power.Scores, gs.Scores); d > 1e-8 {
		t.Errorf("GS deviates from power iteration by %v", d)
	}
	if gs.Stats.Iterations >= power.Stats.Iterations {
		t.Errorf("GS iterations %d not fewer than power %d",
			gs.Stats.Iterations, power.Stats.Iterations)
	}
}

func TestGaussSeidelPersonalized(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.NodeID{1, 2}, []graph.NodeID{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	pers := []float64{0, 0, 1}
	power, err := PageRank(g, PageRankOptions{Personalization: pers})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := PageRankGaussSeidel(g, PageRankOptions{Personalization: pers})
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxDiff(power.Scores, gs.Scores); d > 1e-7 {
		t.Errorf("personalized GS deviates by %v", d)
	}
}

func TestGaussSeidelValidationAndEmpty(t *testing.T) {
	g, _ := graph.FromEdges(2, []graph.NodeID{1}, []graph.NodeID{0})
	if _, err := PageRankGaussSeidel(g, PageRankOptions{Damping: 2}); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad damping: %v", err)
	}
	empty := graph.NewBuilder(0).Build()
	r, err := PageRankGaussSeidel(empty, PageRankOptions{})
	if err != nil || len(r.Scores) != 0 {
		t.Errorf("empty: %v %v", r, err)
	}
}

package core

import (
	"slices"
	"testing"

	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// TestChronologicalCorpusSolvesPrestigeInTwoSweeps pins what the
// chronological solver order and the Gauss–Seidel sweep buy
// together: a generated corpus cites strictly backward in id order, so
// it freezes to the identity, its citation operator is triangular, and
// the prestige walk lands on its fixed point in one sweep and confirms
// it with a second. The Jacobi walk needs about fifty.
func TestChronologicalCorpusSolvesPrestigeInTwoSweeps(t *testing.T) {
	store, net := genNetwork(t, 3000)
	if store.SolverPermutation() != nil {
		t.Fatal("generated corpus did not freeze to the identity permutation")
	}
	sc, err := Rank(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sc.BackEdgeFraction != 0 {
		t.Errorf("back-edge fraction %g on a corpus that cites strictly backward", sc.BackEdgeFraction)
	}
	if !sc.PrestigeStats.Converged || sc.PrestigeStats.Iterations > 2 {
		t.Errorf("prestige took %d sweeps (converged %v), want <= 2", sc.PrestigeStats.Iterations, sc.PrestigeStats.Converged)
	}
	if !sc.HeteroStats.Converged || sc.HeteroStats.Iterations > 12 {
		t.Errorf("hetero took %d sweeps (converged %v), want <= 12", sc.HeteroStats.Iterations, sc.HeteroStats.Converged)
	}
}

// TestBackEdgesCostSweeps checks the other side: publication years
// perturbed against the citations leave edges that point up the solver
// order, the citation operator counts them, and the walk pays for them in
// sweeps — still converging, still far below the Jacobi count.
func TestBackEdgesCostSweeps(t *testing.T) {
	store, _ := genNetwork(t, 3000)
	noisy, err := gen.PerturbYears(store, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.SolverPermutation() == nil {
		t.Fatal("perturbed years left the corpus in chronological id order")
	}
	sc, err := Rank(hetnet.Build(noisy), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sc.BackEdgeFraction <= 0 || sc.BackEdgeFraction > 0.2 {
		t.Errorf("back-edge fraction %g with a tenth of the years perturbed", sc.BackEdgeFraction)
	}
	if it := sc.PrestigeStats.Iterations; !sc.PrestigeStats.Converged || it <= 2 || it > 30 {
		t.Errorf("prestige took %d sweeps (converged %v), want a few more than 2", it, sc.PrestigeStats.Converged)
	}
}

// TestEveryWalkReportsBackEdges checks the back-edge fraction reaches
// the result of every scorer that walks the citation operator — ewpr
// and sceas deposit their own results, and ewpr once reported 0 —
// and that it is the network's one count: the same across solves and
// engines, and equal to the operator's.
func TestEveryWalkReportsBackEdges(t *testing.T) {
	store, _ := genNetwork(t, 3000)
	noisy, err := gen.PerturbYears(store, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := hetnet.Build(noisy)
	want := net.SolverView().CitationTransition().BackEdgeFraction()
	if want <= 0 {
		t.Fatalf("operator back-edge fraction %g with a tenth of the years perturbed", want)
	}
	eng := NewEngine(net)
	for _, name := range []string{ScorerEWPR, ScorerSCEAS, DefaultScorer, ScorerPageRank} {
		for solve := 0; solve < 2; solve++ {
			sc, err := eng.RankScorer(name, nil, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if sc.BackEdgeFraction != want || sc.Shards != 1 {
				t.Errorf("%s solve %d: back-edge fraction %g, %d shards; want %g, 1",
					name, solve, sc.BackEdgeFraction, sc.Shards, want)
			}
		}
		sc, err := RankScorer(net, name, nil, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if sc.BackEdgeFraction != want {
			t.Errorf("%s on a fresh engine: back-edge fraction %g, want %g", name, sc.BackEdgeFraction, want)
		}
	}
}

// TestScoresIndependentOfWorkersAndShards pins the invariant the serial
// sweep restores: the pool only runs passes whose output does not
// depend on how rows are chunked, and a partition only labels the
// sweep, so every worker count and shard count gives the same scores
// bit for bit in the same number of sweeps.
func TestScoresIndependentOfWorkersAndShards(t *testing.T) {
	store, _ := genNetwork(t, 3000)
	noisy, err := gen.PerturbYears(store, 0.1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := hetnet.Build(noisy)
	var base *Scores
	for _, c := range []struct{ workers, shards int }{{1, 0}, {2, 0}, {3, 0}, {1, 4}, {3, 4}} {
		opts := DefaultOptions()
		opts.Workers, opts.Shards = c.workers, c.shards
		sc, err := Rank(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = sc
			continue
		}
		if !slices.Equal(sc.Importance, base.Importance) ||
			sc.PrestigeStats.Iterations != base.PrestigeStats.Iterations ||
			sc.HeteroStats.Iterations != base.HeteroStats.Iterations {
			t.Errorf("workers=%d shards=%d: scores differ from workers=1 (max %g; sweeps %d+%d vs %d+%d)",
				c.workers, c.shards, sparse.MaxDiff(sc.Importance, base.Importance),
				sc.PrestigeStats.Iterations, sc.HeteroStats.Iterations,
				base.PrestigeStats.Iterations, base.HeteroStats.Iterations)
		}
	}
}

package core

import (
	"testing"

	"scholarrank/internal/sparse"
)

// Per-scorer forms of the solver-space property tests: every
// registered scorer must be reorder-invariant (solving over the
// permuted operator and unmapping at the boundary matches the
// identity-order solve) and must accept its own warm cache (a repeat
// solve on the same engine converges to the same scores, in no more
// iterations).

func scorerTestOptions() Options {
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Iter = sparse.IterOptions{Tol: 1e-13, MaxIter: 2000}
	return opts
}

func TestScorerReorderInvariant(t *testing.T) {
	_, permNet, baseNet := genPermutedNetwork(t, 400, 2)
	engPerm := NewEngine(permNet)
	engBase := NewEngine(baseNet)
	for _, name := range ScorerNames() {
		got, err := engPerm.RankScorer(name, nil, scorerTestOptions())
		if err != nil {
			t.Fatalf("%s: permuted solve: %v", name, err)
		}
		want, err := engBase.RankScorer(name, nil, scorerTestOptions())
		if err != nil {
			t.Fatalf("%s: identity solve: %v", name, err)
		}
		if d := sparse.MaxDiff(got.Importance, want.Importance); d > 1e-12 {
			t.Errorf("%s: importance deviates from identity-order solve by %v", name, d)
		}
	}
}

func TestScorerWarmCacheMatchesCold(t *testing.T) {
	_, permNet, _ := genPermutedNetwork(t, 400, 3)
	for _, name := range ScorerNames() {
		eng := NewEngine(permNet)
		cold, err := eng.RankScorer(name, nil, scorerTestOptions())
		if err != nil {
			t.Fatalf("%s: cold solve: %v", name, err)
		}
		warm, err := eng.RankScorer(name, nil, scorerTestOptions())
		if err != nil {
			t.Fatalf("%s: warm solve: %v", name, err)
		}
		if d := sparse.MaxDiff(warm.Importance, cold.Importance); d > 1e-8 {
			t.Errorf("%s: warm repeat deviates from cold solve by %v", name, d)
		}
		coldIters := cold.PrestigeStats.Iterations + cold.HeteroStats.Iterations
		warmIters := warm.PrestigeStats.Iterations + warm.HeteroStats.Iterations
		if warmIters > coldIters {
			t.Errorf("%s: warm repeat took %d iterations, cold took %d", name, warmIters, coldIters)
		}
		// Single-stage scorers leave the unused stats slot zero; only
		// stages that actually iterated must report convergence.
		if cold.PrestigeStats.Iterations > 0 && !warm.PrestigeStats.Converged {
			t.Errorf("%s: warm prestige-slot stage did not converge: %+v", name, warm.PrestigeStats)
		}
		if cold.HeteroStats.Iterations > 0 && !warm.HeteroStats.Converged {
			t.Errorf("%s: warm hetero stage did not converge: %+v", name, warm.HeteroStats)
		}
	}
}

// TestScorerWarmCachesAreNamespaced pins the leaderboard-sharing
// contract: ranking with one scorer must not perturb another scorer's
// results on the same engine.
func TestScorerWarmCachesAreNamespaced(t *testing.T) {
	_, net, _ := genPermutedNetwork(t, 300, 1)
	solo := NewEngine(net)
	want, err := solo.RankScorer(ScorerPageRank, nil, scorerTestOptions())
	if err != nil {
		t.Fatal(err)
	}

	shared := NewEngine(net)
	for _, name := range []string{DefaultScorer, ScorerPrestige, ScorerEWPR, ScorerSCEAS} {
		if _, err := shared.RankScorer(name, nil, scorerTestOptions()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	got, err := shared.RankScorer(ScorerPageRank, nil, scorerTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxDiff(got.Importance, want.Importance); d > 1e-12 {
		t.Errorf("pagerank on a shared engine deviates from a fresh engine by %v", d)
	}
}

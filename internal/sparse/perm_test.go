package sparse

import (
	"math/rand"
	"testing"

	"scholarrank/internal/graph"
)

// TestNewPermutationValidates checks bijection validation and the
// fwd/inv duality.
func TestNewPermutationValidates(t *testing.T) {
	p, err := NewPermutation([]int32{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("p = %+v", p)
	}
	for i, want := range []int32{1, 2, 0} {
		if got := p.Inv()[i]; got != want {
			t.Errorf("inv[%d] = %d, want %d", i, got, want)
		}
	}
	for _, bad := range [][]int32{{0, 0}, {0, 2}, {-1, 0}} {
		if _, err := NewPermutation(bad); err == nil {
			t.Errorf("NewPermutation(%v) accepted", bad)
		}
	}
}

// TestPermutationApplyRestore checks Apply/Restore are inverse maps
// and the nil permutation aliases its input.
func TestPermutationApplyRestore(t *testing.T) {
	p, err := NewPermutation([]int32{3, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	src := []float64{10, 20, 30, 40}
	perm := p.Applied(src)
	// dst[fwd[i]] = src[i]: 10 goes to slot 3, 30 to slot 0.
	want := []float64{30, 20, 40, 10}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("Applied = %v, want %v", perm, want)
		}
	}
	back := p.Restored(perm)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("Restored(Applied(x)) = %v, want %v", back, src)
		}
	}
	var nilP *Permutation
	if nilP.Len() != 0 || nilP.Fwd() != nil {
		t.Error("nil permutation is not identity")
	}
	if got := nilP.Applied(src); &got[0] != &src[0] {
		t.Error("nil Applied did not alias input")
	}
	if got := nilP.Restored(src); &got[0] != &src[0] {
		t.Error("nil Restored did not alias input")
	}
}

// shuffled relabels g by a random permutation.
func shuffled(tb testing.TB, rng *rand.Rand, g *graph.Graph) (*graph.Graph, *Permutation) {
	tb.Helper()
	fwd := make([]int32, g.NumNodes())
	for i, j := range rng.Perm(len(fwd)) {
		fwd[i] = int32(j)
	}
	p, err := NewPermutation(fwd)
	if err != nil {
		tb.Fatal(err)
	}
	return g.Permute(fwd), p
}

// TestDampedWalkReorderInvariant is the solver-level property test:
// on random power-law graphs, solving in a relabelled space and
// mapping the result back through the permutation matches the
// unpermuted solve component-wise to 1e-12 — the permutation only
// reassociates floating-point sums.
func TestDampedWalkReorderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		n := 500 + rng.Intn(2000)
		g := randomPowerLawGraph(t, rng, n)
		rg, p := shuffled(t, rng, g)

		teleport := make([]float64, n)
		Uniform(teleport)
		opts := IterOptions{Tol: 1e-12, MaxIter: 500}

		base, bst, err := DampedWalk(NewTransition(g, nil), 0.85, teleport, opts)
		if err != nil {
			t.Fatal(err)
		}
		perm, pst, err := DampedWalk(NewTransition(rg, nil), 0.85, p.Applied(teleport), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bst.Converged || !pst.Converged {
			t.Fatalf("trial %d: converged = %v/%v", trial, bst.Converged, pst.Converged)
		}
		if d := MaxDiff(base, p.Restored(perm)); d > 1e-12 {
			t.Errorf("trial %d (n=%d): reordered solve differs by %g", trial, n, d)
		}
	}
}

// TestDampedWalkReorderWarmStart checks the warm-start path under a
// permutation: starting the reordered solve from the permuted converged
// base solution converges immediately and maps back to the same
// answer.
func TestDampedWalkReorderWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomPowerLawGraph(t, rng, 1200)
	rg, p := shuffled(t, rng, g)
	teleport := make([]float64, g.NumNodes())
	Uniform(teleport)
	opts := IterOptions{Tol: 1e-12, MaxIter: 500}

	base, _, err := DampedWalk(NewTransition(g, nil), 0.85, teleport, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, st, err := DampedWalkFrom(NewTransition(rg, nil), 0.85, p.Applied(teleport), p.Applied(base), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations > 3 {
		t.Fatalf("warm start across permutation took %d iterations (converged=%v)", st.Iterations, st.Converged)
	}
	if d := MaxDiff(base, p.Restored(warm)); d > 1e-12 {
		t.Errorf("warm reordered solve differs by %g", d)
	}
}

// randomPowerLawGraph builds a randomized preferential-attachment
// graph (unlike benchGraphPowerLaw, the rng is caller-seeded and the
// out-degree varies), including some dangling nodes.
func randomPowerLawGraph(tb testing.TB, rng *rand.Rand, n int) *graph.Graph {
	tb.Helper()
	gb := graph.NewBuilder(n)
	targets := make([]int32, 0, 8*n)
	targets = append(targets, 0)
	for i := 1; i < n; i++ {
		refs := rng.Intn(9) // 0 refs → dangling node
		for r := 0; r < refs; r++ {
			v := targets[rng.Intn(len(targets))]
			_ = gb.AddEdge(graph.NodeID(i), graph.NodeID(v))
			targets = append(targets, v)
		}
		targets = append(targets, int32(i))
	}
	return gb.Build()
}

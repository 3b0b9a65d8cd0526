package sparse

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scholarrank/internal/graph"
)

// symmetrised is the reference the transpose pair replaces: every edge
// added in both directions through graph.Builder, whose dedup makes a
// reciprocal pair and a self-loop count once.
func symmetrised(t testing.TB, g *graph.Graph) *Transition {
	t.Helper()
	b := graph.NewBuilder(g.NumNodes())
	g.VisitEdges(func(u, v graph.NodeID) {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(v, u); err != nil {
			t.Fatal(err)
		}
	})
	return NewTransition(b.Build(), nil)
}

// pairGraph is a random directed graph with everything a citation graph
// is not supposed to have: cycles, reciprocal pairs, self-loops,
// duplicate edges (merged by the builder) and isolated nodes (the top
// tenth of the id range).
func pairGraph(t testing.TB, seed int64, n, perNode int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	linked := n - n/10
	b := graph.NewBuilder(n)
	add := func(u, v int) {
		if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < linked; u++ {
		for r := rng.Intn(perNode + 1); r > 0; r-- {
			v := rng.Intn(linked)
			add(u, v)
			switch rng.Intn(8) {
			case 0:
				add(v, u) // reciprocal
			case 1:
				add(u, v) // duplicate
			case 2:
				add(u, u) // self-loop
			}
		}
	}
	return b.Build()
}

func seedWalk(t testing.TB, p *TransposePair, seed int, opts IterOptions) ([]float64, IterStats) {
	t.Helper()
	x, st, err := p.SeedWalk(context.Background(), seed, 0.85, 0, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return x, st
}

// TestSeedWalkMatchesSymmetrisedWalk pins the pair operator to the
// damped walk over the symmetrised graph with a one-hot teleport: same
// sweep count, vectors equal to 1e-12 (the row sums are reassociated —
// in-edges, out-edges, minus reciprocals — so not bit for bit), plain
// and with Aitken extrapolation, which exercises the reseed path.
func TestSeedWalkMatchesSymmetrisedWalk(t *testing.T) {
	for _, gseed := range []int64{1, 2, 3} {
		g := pairGraph(t, gseed, 600, 5)
		n := g.NumNodes()
		pair, err := NewTransposePair(NewTransition(g, nil), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pair.recipRows) == 0 {
			t.Fatal("fixture has no reciprocal rows")
		}
		ref := symmetrised(t, g)
		seeds := []int{0, 17, n / 2, int(pair.recipRows[0]), n - 1} // n-1 is isolated
		if pair.invDeg[n-1] != 0 {
			t.Fatal("fixture's last node is not isolated")
		}
		for _, opts := range []IterOptions{{}, {AitkenEvery: 4, Tol: 1e-12}} {
			for _, seed := range seeds {
				teleport := make([]float64, n)
				teleport[seed] = 1
				want, wst, err := DampedWalk(ref, 0.85, teleport, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, gst := seedWalk(t, pair, seed, opts)
				if d := MaxDiff(got, want); d > 1e-12 {
					t.Errorf("graph %d seed %d aitken=%d: walk differs from the symmetrised walk by %g", gseed, seed, opts.AitkenEvery, d)
				}
				if gst.Iterations != wst.Iterations || gst.Converged != wst.Converged || gst.Extrapolations != wst.Extrapolations {
					t.Errorf("graph %d seed %d aitken=%d: %d sweeps (%d extrapolations, converged=%v), symmetrised walk %d (%d, %v)",
						gseed, seed, opts.AitkenEvery, gst.Iterations, gst.Extrapolations, gst.Converged, wst.Iterations, wst.Extrapolations, wst.Converged)
				}
			}
		}
	}
}

// TestSeedWalkParallelMatchesSerial checks the chunked sweep: a plan
// with several chunks on a multi-worker pool writes the same vector as
// the inline sweep (each row is computed alike; only the residual's
// reduction tree differs, which cannot move a vector entry).
func TestSeedWalkParallelMatchesSerial(t *testing.T) {
	g := pairGraph(t, 4, 20_000, 8)
	in := NewTransition(g, nil)
	serial, err := NewTransposePair(in, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(3)
	par, err := NewTransposePair(in, g, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.chunks) < 3 {
		t.Fatalf("plan has %d chunks, want several", len(par.chunks)-1)
	}
	opts := IterOptions{MaxIter: 25, Tol: 1e-300} // a fixed sweep count on both sides
	want, _ := seedWalk(t, serial, 5, opts)
	before := pool.Stats().Runs
	got, _ := seedWalk(t, par, 5, opts)
	if pool.Stats().Runs == before {
		t.Fatal("parallel walk never ran on the pool")
	}
	if d := MaxDiff(got, want); d != 0 {
		t.Errorf("parallel walk differs from serial by %g", d)
	}
}

// TestNewTransposePairRejectsMismatch checks the constructor refuses an
// in-CSR that is not the pull form of the out-CSR.
func TestNewTransposePairRejectsMismatch(t *testing.T) {
	g := pairGraph(t, 1, 50, 3)
	other := pairGraph(t, 2, 60, 3)
	if _, err := NewTransposePair(NewTransition(other, nil), g, nil); err == nil {
		t.Error("mismatched operands accepted")
	}
	pair, err := NewTransposePair(NewTransition(g, nil), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pair.SeedWalk(context.Background(), pair.N(), 0.85, 0, nil, IterOptions{}); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, _, err := pair.SeedWalk(context.Background(), 0, 0.85, -1, nil, IterOptions{}); err == nil {
		t.Error("negative k accepted")
	}
}

// TestSeedWalkScratchReuse checks a recycled scratch changes nothing: a
// walk on a scratch that another walk (another seed, another cadence,
// another dimension) has just dirtied is bit-identical to one on a
// fresh scratch, and it returns a vector inside the scratch.
func TestSeedWalkScratchReuse(t *testing.T) {
	g := pairGraph(t, 5, 800, 6)
	pair, err := NewTransposePair(NewTransition(g, nil), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	small := pairGraph(t, 6, 300, 4)
	smallPair, err := NewTransposePair(NewTransition(small, nil), small, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ws := new(WalkScratch)
	for _, opts := range []IterOptions{{}, {AitkenEvery: 4, Tol: 1e-12}} {
		want, wst := seedWalk(t, pair, 3, opts)
		if _, _, err := pair.SeedWalk(ctx, 40, 0.85, 0, ws, IterOptions{AitkenEvery: 3}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := smallPair.SeedWalk(ctx, 7, 0.85, 0, ws, IterOptions{AitkenEvery: 5}); err != nil {
			t.Fatal(err)
		}
		got, gst, err := pair.SeedWalk(ctx, 3, 0.85, 0, ws, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("aitken=%d: entry %d is %v on a reused scratch, %v on a fresh one", opts.AitkenEvery, i, got[i], want[i])
			}
		}
		if gst.Iterations != wst.Iterations || gst.Extrapolations != wst.Extrapolations {
			t.Errorf("aitken=%d: %d sweeps (%d extrapolations) on a reused scratch, %d (%d) on a fresh one",
				opts.AitkenEvery, gst.Iterations, gst.Extrapolations, wst.Iterations, wst.Extrapolations)
		}
		if &got[0] != &ws.cur[0] && &got[0] != &ws.next[0] {
			t.Errorf("aitken=%d: the returned vector is not one of the scratch iterates", opts.AitkenEvery)
		}
	}
}

// TestSeedWalkStopsOnCancel checks the driver's per-sweep context
// check: a walk whose context is cancelled during sweep k stops after
// at most k+1 sweeps (an Aitken trial may follow the plain sweep
// inside one round), with Aitken on and off, and reports the sweeps
// it ran and an error that is context.Canceled.
func TestSeedWalkStopsOnCancel(t *testing.T) {
	g := pairGraph(t, 7, 2000, 6)
	pair, err := NewTransposePair(NewTransition(g, nil), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, aitken := range []int{0, 4} {
		full, fst := seedWalk(t, pair, 11, IterOptions{AitkenEvery: aitken, Tol: 1e-14})
		if full == nil || fst.Iterations < 12 {
			t.Fatalf("aitken=%d: the uncancelled walk takes %d sweeps, too few to cancel inside", aitken, fst.Iterations)
		}
		for _, k := range []int{1, 5, 9} {
			ctx, cancel := context.WithCancel(context.Background())
			opts := IterOptions{AitkenEvery: aitken, Tol: 1e-14, OnIteration: func(ev IterEvent) {
				if ev.Iteration == k {
					cancel()
				}
			}}
			x, st, err := pair.SeedWalk(ctx, 11, 0.85, 0, nil, opts)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("aitken=%d k=%d: err = %v, want context.Canceled", aitken, k, err)
			}
			if x != nil || st.Converged || st.Iterations < k || st.Iterations > k+1 {
				t.Errorf("aitken=%d k=%d: stopped after %d sweeps (converged=%v, vector=%v), want k or k+1",
					aitken, k, st.Iterations, st.Converged, x != nil)
			}
		}
	}
}

// topOrder is the selection /related makes from a walk: the k highest
// entries other than the seed, highest first, ties to the lower index,
// zeros dropped.
func topOrder(x []float64, seed, k int) []int {
	var idx []int
	for i, v := range x {
		if i != seed && v > 0 {
			idx = append(idx, i)
		}
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(x[b], x[a]) })
	return idx[:min(k, len(idx))]
}

// exactSeedWalk is the reference a certified walk answers to: the same
// walk run to a residual of 1e-14, in a vector of its own.
func exactSeedWalk(t testing.TB, p *TransposePair, seed int) []float64 {
	t.Helper()
	x, st := seedWalk(t, p, seed, IterOptions{Tol: 1e-14, MaxIter: 2000, AitkenEvery: 4})
	if !st.Converged {
		t.Fatalf("seed %d: the reference walk stopped at %d sweeps, residual %g", seed, st.Iterations, st.Residual)
	}
	return x
}

// TestSeedWalkCertificateBound checks the bound the certificate rests
// on, at every step the driver keeps — plain sweeps and accepted Aitken
// trials, never a rejected one: the kept iterate lies within
// d/(1−d)·residual of the fixed point in L1.
func TestSeedWalkCertificateBound(t *testing.T) {
	const d = 0.85
	for _, gseed := range []int64{1, 2} {
		g := pairGraph(t, gseed, 600, 5)
		pair, err := NewTransposePair(NewTransition(g, nil), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, aitken := range []int{0, 4} {
			for _, seed := range []int{0, 17, int(pair.recipRows[0])} {
				exact := exactSeedWalk(t, pair, seed)
				kept := 0
				opts := IterOptions{AitkenEvery: aitken}
				opts.stop = func(x []float64, res float64) bool {
					kept++
					if errL1, eps := L1Diff(x, exact), d/(1-d)*res; errL1 > eps+1e-12 {
						t.Errorf("graph %d seed %d aitken=%d: kept step %d lies %g from the fixed point, bound %g",
							gseed, seed, aitken, kept, errL1, eps)
					}
					return false
				}
				_, st := seedWalk(t, pair, seed, opts)
				if kept < 10 || (aitken > 0 && st.Extrapolations == 0) {
					t.Errorf("graph %d seed %d aitken=%d: %d kept steps observed, %d extrapolations", gseed, seed, aitken, kept, st.Extrapolations)
				}
			}
		}
	}
}

// TestSeedWalkCertificateTie plants an exact tie: leaves 1 and 2 hang
// off the seed alike, below article 3. A walk asked for the top 2
// can never tell them apart, so it runs to Tol exactly as an
// uncertified walk does and reports no certificate; asked for the top
// 1, it certifies article 3 early.
func TestSeedWalkCertificateTie(t *testing.T) {
	b := graph.NewBuilder(5)
	for _, e := range [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 0}, {3, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	pair, err := NewTransposePair(NewTransition(g, nil), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, aitken := range []int{0, 4} {
		opts := IterOptions{AitkenEvery: aitken}
		want, wst := seedWalk(t, pair, 0, opts)
		if want[1] != want[2] || !(want[3] > want[1]) {
			t.Fatalf("aitken=%d: fixture scores %v, want a tie below article 3", aitken, want)
		}
		tied, st, err := pair.SeedWalk(ctx, 0, 0.85, 2, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged || st.Certified || st.Iterations != wst.Iterations || MaxDiff(tied, want) != 0 {
			t.Errorf("aitken=%d k=2: %d sweeps (converged=%v certified=%v), want the uncertified walk's %d and its vector",
				aitken, st.Iterations, st.Converged, st.Certified, wst.Iterations)
		}
		top, st, err := pair.SeedWalk(ctx, 0, 0.85, 1, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged || !st.Certified || st.Iterations >= wst.Iterations || topOrder(top, 0, 1)[0] != 3 {
			t.Errorf("aitken=%d k=1: %d sweeps (converged=%v certified=%v), top %v; want article 3 certified in fewer than %d",
				aitken, st.Iterations, st.Converged, st.Certified, topOrder(top, 0, 1), wst.Iterations)
		}
	}
}

// FuzzSeedWalkCertificate drives certified walks over small graphs
// made from the input — reciprocal edges, self-loops, duplicates and
// isolated nodes included — and checks that whenever a walk reports a
// certificate, its ordered top k is that of the walk run to 1e-14.
// Input: n, seed, k (1..20), the Aitken cadence, then edge pairs.
func FuzzSeedWalkCertificate(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3, 4})                   // the tie fixture, k = 2
	f.Add([]byte{3, 0, 0, 1, 1, 0, 2, 0, 3, 0, 3, 4})                   // ... k = 1, with Aitken
	f.Add([]byte{6, 2, 3, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7}) // a path
	f.Add([]byte{4, 1, 1, 0, 0, 1, 1, 0, 1, 1, 2, 3, 3, 2, 4, 4, 1, 3}) // reciprocals, self-loops
	f.Add([]byte{38, 7, 9, 1, 9, 7, 7, 3, 3, 12, 12, 7, 30, 31, 31, 30, 5, 6, 6, 5, 8, 7, 20, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%40
		seed, k := int(data[1])%n, 1+int(data[2])%20
		aitken := 4 * int(data[3]%2)
		b := graph.NewBuilder(n)
		for i := 4; i+1 < len(data); i += 2 {
			if err := b.AddEdge(graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n)); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		pair, err := NewTransposePair(NewTransition(g, nil), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := pair.SeedWalk(context.Background(), seed, 0.85, k, nil, IterOptions{AitkenEvery: aitken})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Certified {
			return
		}
		want := topOrder(exactSeedWalk(t, pair, seed), seed, k)
		if top := topOrder(got, seed, k); !slices.Equal(top, want) {
			t.Errorf("n=%d seed=%d k=%d aitken=%d: certified top %v after %d sweeps, exact walk %v", n, seed, k, aitken, top, st.Iterations, want)
		}
	})
}

package core

import (
	"runtime"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

func TestEngineMatchesRank(t *testing.T) {
	net := fixture(t)
	direct, err := Rank(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(net)
	viaEngine, err := eng.Rank(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxDiff(direct.Importance, viaEngine.Importance); d > 1e-12 {
		t.Errorf("engine deviates from Rank by %v", d)
	}
	if eng.Network() != net {
		t.Error("Network() identity lost")
	}
}

func TestEngineCachesGapTransitions(t *testing.T) {
	eng := NewEngine(fixture(t))
	opts := DefaultOptions()
	if _, err := eng.Rank(opts); err != nil {
		t.Fatal(err)
	}
	if len(eng.gapTrans) != 1 {
		t.Fatalf("gap cache size = %d", len(eng.gapTrans))
	}
	first := eng.gapTrans[opts.RhoGap]
	// Same RhoGap: cache hit.
	if _, err := eng.Rank(opts); err != nil {
		t.Fatal(err)
	}
	if eng.gapTrans[opts.RhoGap] != first {
		t.Error("cache rebuilt on identical RhoGap")
	}
	// Different RhoGap: new entry.
	opts.RhoGap = 0.5
	if _, err := eng.Rank(opts); err != nil {
		t.Fatal(err)
	}
	if len(eng.gapTrans) != 2 {
		t.Errorf("gap cache size = %d after second rho", len(eng.gapTrans))
	}
}

func TestEngineZeroGapSharesCitationTransition(t *testing.T) {
	eng := NewEngine(fixture(t))
	opts := DefaultOptions()
	opts.RhoGap = 0
	if _, err := eng.Rank(opts); err != nil {
		t.Fatal(err)
	}
	if len(eng.gapTrans) != 0 {
		t.Errorf("rho=0 should reuse the network's citation transition, not cache a reweighting (%d cached)", len(eng.gapTrans))
	}
}

func TestEngineSweepConsistency(t *testing.T) {
	// Sweeping options through one engine must give the same results
	// as fresh Rank calls — the cache must be purely an optimisation.
	net := fixture(t)
	eng := NewEngine(net)
	for _, rho := range []float64{0, 0.2, 0.8} {
		opts := DefaultOptions()
		opts.RhoRecency = rho
		fresh, err := Rank(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := eng.Rank(opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.MaxDiff(fresh.Importance, cached.Importance); d > 1e-12 {
			t.Errorf("rho=%v: engine deviates by %v", rho, d)
		}
	}
}

func TestEngineWarmStartReducesIterations(t *testing.T) {
	net := fixture(t)
	eng := NewEngine(net)
	opts := DefaultOptions()
	// Pin extrapolation off: on a 7-article fixture an accepted Aitken
	// jump can land a cold solve on the fixed point in fewer sweeps
	// than any seed saves, which would invert the warm-vs-cold count
	// this test isolates (warm-start correctness under the accelerated
	// default is covered by TestWarmStartMatchesCold).
	opts.AitkenEvery = -1
	first, err := eng.Rank(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny parameter nudge: the warm-started second solve must both
	// match a cold solve and converge in fewer iterations. The prestige
	// walk over this acyclic fixture takes its two sweeps from any
	// start, so the saving is the hetero walk's.
	opts.RhoRecency = 0.75
	warm, err := eng.Rank(opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Rank(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxDiff(warm.Importance, cold.Importance); d > 1e-7 {
		t.Errorf("warm start changed the fixed point by %v", d)
	}
	if warm.PrestigeStats.Iterations > cold.PrestigeStats.Iterations ||
		warm.HeteroStats.Iterations >= cold.HeteroStats.Iterations {
		t.Errorf("warm start did not save iterations: prestige %d vs %d, hetero %d vs %d",
			warm.PrestigeStats.Iterations, cold.PrestigeStats.Iterations,
			warm.HeteroStats.Iterations, cold.HeteroStats.Iterations)
	}
	_ = first
}

func TestEngineValidatesOptions(t *testing.T) {
	eng := NewEngine(fixture(t))
	opts := DefaultOptions()
	opts.Damping = 7
	if _, err := eng.Rank(opts); err == nil {
		t.Error("bad options accepted")
	}
}

func TestEngineEmptyNetwork(t *testing.T) {
	eng := NewEngine(hetnet.Build(corpus.NewBuilder().Freeze()))
	sc, err := eng.Rank(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Importance) != 0 {
		t.Errorf("empty engine scores: %+v", sc)
	}
}

// TestEngineWorkersRaceAndLeak exercises Rank across worker counts —
// under -race this doubles as the data-race check on the pooled
// kernels — and checks that an engine owns no goroutines: across the
// solves the count grows by at most the process-wide sparse helpers,
// GOMAXPROCS-1 of them.
func TestEngineWorkersRaceAndLeak(t *testing.T) {
	net := fixture(t)
	before := runtime.NumGoroutine()
	eng := NewEngine(net)
	var base *Scores
	for _, workers := range []int{1, 2, 4, 2} {
		opts := DefaultOptions()
		opts.Workers = workers
		sc, err := eng.Rank(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = sc
		} else if d := sparse.MaxDiff(base.Importance, sc.Importance); d > 1e-12 {
			t.Errorf("workers=%d deviates from workers=1 by %v", workers, d)
		}
	}
	if n, limit := runtime.NumGoroutine(), before+runtime.GOMAXPROCS(0)-1; n > limit {
		t.Errorf("%d goroutines after four solves, limit %d (%d before + GOMAXPROCS-1 shared helpers)", n, limit, before)
	}
}

// TestCitationOperatorsHoldNoEdgeFloats pins what the solve's citation
// operators cost: on a 50k-article generated corpus, building the
// network's citation operator plus one gap operator allocates at most
// 5 bytes per citation and 64 per article — the 4-byte source of each
// in-edge and O(articles) beside it. A per-edge float stream (8 bytes
// per edge for either operator) breaks the bound.
func TestCitationOperatorsHoldNoEdgeFloats(t *testing.T) {
	c, err := gen.Generate(gen.NewDefaultConfig(50_000))
	if err != nil {
		t.Fatal(err)
	}
	net := hetnet.Build(c.Store)
	view := net.SolverView()
	eng := NewEngine(net)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	view.CitationTransition()
	if _, err := eng.gapTransition(0.1, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	articles, edges := uint64(net.NumArticles()), uint64(view.Citations.NumEdges())
	got, limit := after.TotalAlloc-before.TotalAlloc, 5*edges+64*articles
	t.Logf("%d articles, %d citations: %d bytes allocated, budget %d", articles, edges, got, limit)
	if got > limit {
		t.Errorf("citation + gap operator over %d articles and %d citations allocated %d bytes, want <= %d (5 B/edge + 64 B/article)",
			articles, edges, got, limit)
	}
}

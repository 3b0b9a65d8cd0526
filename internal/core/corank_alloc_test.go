//go:build !race

// The race detector's sync.Pool drops recycled vectors at random, so
// allocation figures are only meaningful without it.

package core

import (
	"runtime"
	"testing"

	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
)

// TestCoRankColdSolveAllocation pins what a cold corank solve costs in
// memory on a fresh 50k-article generated network: the co-authorship
// walk reads the solver view's two authorship CSRs, so the solve
// allocates the view, the citation operator and per-article and
// per-author vectors, and nothing per pair of co-authors.
func TestCoRankColdSolveAllocation(t *testing.T) {
	c, err := gen.Generate(gen.NewDefaultConfig(50_000))
	if err != nil {
		t.Fatal(err)
	}
	net := hetnet.Build(c.Store)
	opts := DefaultOptions()
	opts.Workers = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RankScorer(net, ScorerCoRank, nil, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("cold corank solve allocated %.1f MB", mb)
	if mb > 8 {
		t.Errorf("cold corank solve allocated %.1f MB, want <= 8 MB", mb)
	}
}

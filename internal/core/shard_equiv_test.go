package core

import (
	"fmt"
	"testing"

	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// shardEquivNetwork generates one synthetic corpus for the sharded
// equivalence properties. prefAttach 0 yields uniformly random
// citations; 1 yields the power-law in-degree tail sharding is
// designed around.
func shardEquivNetwork(t *testing.T, n int, prefAttach float64, seed int64) *hetnet.Network {
	t.Helper()
	cfg := gen.NewDefaultConfig(n)
	cfg.PrefAttach = prefAttach
	cfg.Seed = seed
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return hetnet.Build(c.Store)
}

// shardEquivOptions is scorerTestOptions with min–max normalisation:
// articles with exactly equal component scores (same-year uncited
// articles under the recency teleport) form percentile tie groups
// that 1e-15 float-association noise between the sharded and
// unsharded trajectories would split differently, so the rank-based
// importance is not comparable at 1e-10 — the smooth normalisation
// is.
func shardEquivOptions() Options {
	opts := scorerTestOptions()
	opts.Normalization = NormMinMax
	return opts
}

// TestShardedRankMatchesUnsharded is the sharded-solve equivalence
// property: the default scorer over 2/4/8 shards, on random and
// power-law corpora, must match the unsharded solve to 1e-10 — cold,
// warm, and warm across a shard-count change.
func TestShardedRankMatchesUnsharded(t *testing.T) {
	const tol = 1e-10
	check := func(t *testing.T, label string, got, want *Scores) {
		t.Helper()
		for name, pair := range map[string][2][]float64{
			"Importance":  {got.Importance, want.Importance},
			"Prestige":    {got.Prestige, want.Prestige},
			"RawPrestige": {got.RawPrestige, want.RawPrestige},
			"Popularity":  {got.Popularity, want.Popularity},
			"Hetero":      {got.Hetero, want.Hetero},
		} {
			if d := sparse.MaxDiff(pair[0], pair[1]); d > tol {
				t.Errorf("%s: %s deviates from the unsharded solve by %v", label, name, d)
			}
		}
	}
	for _, tc := range []struct {
		name       string
		prefAttach float64
	}{
		{"random", 0},
		{"powerlaw", 1.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := shardEquivNetwork(t, 600, tc.prefAttach, 7)
			want, err := Rank(net, shardEquivOptions())
			if err != nil {
				t.Fatal(err)
			}
			if want.Shards != 1 || want.ShardEdges != nil {
				t.Fatalf("unsharded solve reports shard layout %d/%v", want.Shards, want.ShardEdges)
			}
			if want.PrestigeStats.Exchanges != 0 || want.HeteroStats.Exchanges != 0 {
				t.Fatalf("unsharded solve reports boundary exchanges %d/%d",
					want.PrestigeStats.Exchanges, want.HeteroStats.Exchanges)
			}
			for _, shards := range []int{2, 4, 8} {
				label := fmt.Sprintf("shards=%d", shards)
				opts := shardEquivOptions()
				opts.Shards = shards
				eng := NewEngine(net)
				cold, err := eng.Rank(opts)
				if err != nil {
					t.Fatalf("%s: cold: %v", label, err)
				}
				check(t, label+" cold", cold, want)
				if cold.Shards != shards {
					t.Errorf("%s: result reports %d shards", label, cold.Shards)
				}
				if len(cold.ShardEdges) != shards {
					t.Errorf("%s: %d shard edge counts, want %d", label, len(cold.ShardEdges), shards)
				}
				if cold.PrestigeStats.Exchanges != shards*cold.PrestigeStats.Iterations ||
					cold.HeteroStats.Exchanges != shards*cold.HeteroStats.Iterations {
					t.Errorf("%s: boundary exchanges %d/%d, want one per shard per sweep",
						label, cold.PrestigeStats.Exchanges, cold.HeteroStats.Exchanges)
				}
				warm, err := eng.Rank(opts)
				if err != nil {
					t.Fatalf("%s: warm: %v", label, err)
				}
				check(t, label+" warm", warm, want)
				coldIters := cold.PrestigeStats.Iterations + cold.HeteroStats.Iterations
				warmIters := warm.PrestigeStats.Iterations + warm.HeteroStats.Iterations
				if warmIters > coldIters {
					t.Errorf("%s: warm repeat took %d iterations, cold took %d", label, warmIters, coldIters)
				}
				// The warm cache must survive a shard-count change:
				// fixed points are shard-independent, so the cached
				// vectors stay valid starting points.
				opts.Shards = shards * 2
				if shards == 8 {
					opts.Shards = 2
				}
				crossed, err := eng.Rank(opts)
				if err != nil {
					t.Fatalf("%s: warm across shard-count change: %v", label, err)
				}
				check(t, label+" resharded", crossed, want)
				if crossed.Shards != opts.Shards {
					t.Errorf("%s: resharded result reports %d shards, want %d", label, crossed.Shards, opts.Shards)
				}
			}
		})
	}
}

package shard

import (
	"math/rand"
	"testing"

	"scholarrank/internal/graph"
)

// citationGraph builds a random DAG shaped like a citation graph:
// node i cites refs earlier nodes. With powerLaw set, targets are
// picked preferentially by current in-degree, producing the
// heavy-tailed rows the balance windows must absorb.
func citationGraph(tb testing.TB, n, refs int, powerLaw bool) *graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	gb := graph.NewBuilder(n)
	targets := []int32{0}
	for i := 1; i < n; i++ {
		for r := 0; r < refs; r++ {
			var v int32
			if powerLaw {
				v = targets[rng.Intn(len(targets))]
			} else {
				v = int32(rng.Intn(i))
			}
			if err := gb.AddEdge(graph.NodeID(i), graph.NodeID(v)); err != nil {
				tb.Fatal(err)
			}
			targets = append(targets, v)
		}
		targets = append(targets, int32(i))
	}
	return gb.Build()
}

// bruteStats recomputes intra/cross counts for a set of bounds
// directly from the graph, independent of Partition's accounting.
func bruteStats(g *graph.Graph, bounds []int32) (intra, cross []int64, cut int64) {
	k := len(bounds) - 1
	intra = make([]int64, k)
	cross = make([]int64, k)
	shardOf := func(v int32) int {
		for s := 0; s < k; s++ {
			if v < bounds[s+1] {
				return s
			}
		}
		return k - 1
	}
	g.VisitEdges(func(u, v graph.NodeID) {
		su, sv := shardOf(int32(u)), shardOf(int32(v))
		if su == sv {
			intra[sv]++
		} else {
			cross[sv]++
			cut++
		}
	})
	return intra, cross, cut
}

func TestPartitionShape(t *testing.T) {
	g := citationGraph(t, 3000, 8, false)
	for _, k := range []int{1, 2, 4, 8, 16} {
		p, err := Partition(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.Shards() != k {
			t.Fatalf("k=%d: got %d shards", k, p.Shards())
		}
		if p.Bounds[0] != 0 || int(p.Bounds[k]) != g.NumNodes() {
			t.Fatalf("k=%d: bounds %v do not cover [0,%d)", k, p.Bounds, g.NumNodes())
		}
		for s := 0; s < k; s++ {
			if p.Bounds[s] >= p.Bounds[s+1] {
				t.Fatalf("k=%d: empty shard %d in bounds %v", k, s, p.Bounds)
			}
		}
		intra, cross, cut := bruteStats(g, p.Bounds)
		var total int64
		for s := 0; s < k; s++ {
			if p.Intra[s] != intra[s] || p.Cross[s] != cross[s] {
				t.Fatalf("k=%d shard %d: plan intra/cross %d/%d, brute %d/%d",
					k, s, p.Intra[s], p.Cross[s], intra[s], cross[s])
			}
			total += p.Edges(s)
		}
		if p.Cut != cut {
			t.Fatalf("k=%d: plan cut %d, brute %d", k, p.Cut, cut)
		}
		if total != int64(g.NumEdges()) {
			t.Fatalf("k=%d: edges sum to %d, graph has %d", k, total, g.NumEdges())
		}
	}
}

// TestPartitionBalance asserts the ~10% work-balance contract: each
// shard's pull work (edges + rows) stays within 10% of the mean.
func TestPartitionBalance(t *testing.T) {
	for _, tc := range []struct {
		name     string
		powerLaw bool
	}{{"random", false}, {"powerlaw", true}} {
		t.Run(tc.name, func(t *testing.T) {
			g := citationGraph(t, 20000, 12, tc.powerLaw)
			for _, k := range []int{2, 4, 8} {
				p, err := Partition(g, k)
				if err != nil {
					t.Fatal(err)
				}
				mean := float64(g.NumEdges()+g.NumNodes()) / float64(k)
				for s := 0; s < k; s++ {
					work := float64(p.Edges(s) + int64(p.Bounds[s+1]-p.Bounds[s]))
					if dev := work/mean - 1; dev > 0.101 || dev < -0.101 {
						t.Errorf("k=%d shard %d: work %.0f is %.1f%% off the mean %.0f",
							k, s, work, 100*dev, mean)
					}
				}
			}
		})
	}
}

// TestPartitionCutMinimised builds two equally heavy clusters joined
// by three bridge edges: every position near the equal-work target
// severs intra-cluster edges except the cluster boundary itself, so
// the cut-minimising window search must land exactly there.
func TestPartitionCutMinimised(t *testing.T) {
	const half = 500
	rng := rand.New(rand.NewSource(11))
	gb := graph.NewBuilder(2 * half)
	for _, base := range []int{0, half} {
		for i := 1; i < half; i++ {
			for r := 0; r < 4; r++ {
				if err := gb.AddEdge(graph.NodeID(base+i), graph.NodeID(base+rng.Intn(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, e := range [][2]int{{half + 10, 20}, {half + 100, 250}, {half + 400, 499}} {
		if err := gb.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Partition(gb.Build(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bounds[1] != half {
		t.Fatalf("boundary at %d, want the cluster gap %d", p.Bounds[1], half)
	}
	if p.Cut != 3 {
		t.Fatalf("cut %d, want the 3 bridge edges", p.Cut)
	}
}

func TestPartitionDegenerate(t *testing.T) {
	if _, err := Partition(citationGraph(t, 10, 2, false), 0); err == nil {
		t.Fatal("shards=0: want error")
	}
	// More shards than rows clamps to one row per shard.
	g := citationGraph(t, 5, 1, false)
	p, err := Partition(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 5 {
		t.Fatalf("clamp: got %d shards, want 5", p.Shards())
	}
	// Empty graph.
	p, err = Partition(graph.NewBuilder(0).Build(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 1 || p.Bounds[1] != 0 {
		t.Fatalf("empty graph: plan %+v", p)
	}
}

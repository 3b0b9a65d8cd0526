package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// buildDiamond returns the 4-node graph 0->1, 0->2, 1->3, 2->3.
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, []NodeID{0, 0, 1, 2}, []NodeID{1, 2, 3, 3})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, false).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("zero value not empty")
	}
}

func TestBuilderBasics(t *testing.T) {
	g := buildDiamond(t)
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Errorf("Neighbors(0) = %v", got)
	}
	if g.OutDegree(3) != 0 {
		t.Errorf("OutDegree(3) = %d, want 0", g.OutDegree(3))
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2, false)
	if err := b.AddEdge(0, 2); err == nil {
		t.Error("AddEdge(0,2) with n=2 succeeded, want error")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Error("AddEdge(-1,0) succeeded, want error")
	}
}

func TestBuilderMergesDuplicatesUnweighted(t *testing.T) {
	b := NewBuilder(2, false)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
}

func TestBuilderMergesDuplicatesWeighted(t *testing.T) {
	b := NewBuilder(2, true)
	for i := 1; i <= 3; i++ {
		if err := b.AddWeightedEdge(0, 1, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if w := g.Weight(0, 1); w != 6 {
		t.Errorf("merged weight = %v, want 6", w)
	}
}

func TestBuilderGrow(t *testing.T) {
	b := NewBuilder(1, false)
	b.Grow(3)
	if err := b.AddEdge(2, 0); err != nil {
		t.Fatalf("AddEdge after Grow: %v", err)
	}
	g := b.Build()
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
}

func TestWeightAndHasEdge(t *testing.T) {
	g, err := FromWeightedEdges(3, []NodeID{0, 0}, []NodeID{1, 2}, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Error("missing expected edges")
	}
	if g.HasEdge(1, 0) {
		t.Error("unexpected edge 1->0")
	}
	if w := g.Weight(0, 2); w != 2 {
		t.Errorf("Weight(0,2) = %v, want 2", w)
	}
	if w := g.Weight(1, 2); w != 0 {
		t.Errorf("Weight(1,2) = %v, want 0", w)
	}
	if w := g.OutWeight(0); w != 2.5 {
		t.Errorf("OutWeight(0) = %v, want 2.5", w)
	}
}

func TestUnweightedWeightIsOne(t *testing.T) {
	g := buildDiamond(t)
	if w := g.Weight(0, 1); w != 1 {
		t.Errorf("Weight = %v, want 1", w)
	}
	if g.EdgeWeights(0) != nil {
		t.Error("EdgeWeights should be nil for unweighted graph")
	}
}

func TestDegrees(t *testing.T) {
	g := buildDiamond(t)
	if got := g.InDegrees(); !reflect.DeepEqual(got, []int{0, 1, 1, 2}) {
		t.Errorf("InDegrees = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	g := buildDiamond(t)
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose Validate: %v", err)
	}
	if got := tr.Neighbors(3); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Errorf("transpose Neighbors(3) = %v", got)
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Errorf("edge count changed: %d vs %d", tr.NumEdges(), g.NumEdges())
	}
	// Transposing twice restores the original edge set.
	back := tr.Transpose()
	g.VisitEdges(func(u, v NodeID, w float64) {
		if !back.HasEdge(u, v) {
			t.Errorf("double transpose lost edge %d->%d", u, v)
		}
	})
}

func TestTransposePreservesWeights(t *testing.T) {
	g, err := FromWeightedEdges(3, []NodeID{0, 1}, []NodeID{2, 2}, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Transpose()
	if w := tr.Weight(2, 0); w != 3 {
		t.Errorf("Weight(2,0) = %v, want 3", w)
	}
	if w := tr.Weight(2, 1); w != 7 {
		t.Errorf("Weight(2,1) = %v, want 7", w)
	}
}

func TestVisitEdges(t *testing.T) {
	g := buildDiamond(t)
	var count int
	var sumW float64
	g.VisitEdges(func(u, v NodeID, w float64) {
		count++
		sumW += w
	})
	if count != 4 || sumW != 4 {
		t.Errorf("VisitEdges count=%d sumW=%v", count, sumW)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := buildDiamond(t)
	g.targets[0], g.targets[1] = g.targets[1], g.targets[0] // unsort row 0
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted unsorted row")
	}
}

func TestStatsDiamond(t *testing.T) {
	g := buildDiamond(t)
	s := ComputeStats(g)
	if s.Nodes != 4 || s.Edges != 4 {
		t.Errorf("stats n/m = %d/%d", s.Nodes, s.Edges)
	}
	if s.MaxInDegree != 2 || s.MaxOutDegree != 2 {
		t.Errorf("max degrees in=%d out=%d", s.MaxInDegree, s.MaxOutDegree)
	}
	if s.Dangling != 1 {
		t.Errorf("dangling = %d, want 1 (node 3)", s.Dangling)
	}
	if s.Isolated != 0 {
		t.Errorf("isolated = %d, want 0", s.Isolated)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestGini(t *testing.T) {
	if g := gini([]int{5, 5, 5, 5}); g > 1e-12 {
		t.Errorf("uniform gini = %v, want 0", g)
	}
	// All mass on one node out of many approaches 1.
	vals := make([]int, 1000)
	vals[0] = 1_000_000
	if g := gini(vals); g < 0.99 {
		t.Errorf("concentrated gini = %v, want ~1", g)
	}
	if g := gini(nil); g != 0 {
		t.Errorf("empty gini = %v", g)
	}
}

func TestPowerLawAlphaOnSyntheticTail(t *testing.T) {
	// Sample from a discrete power law with alpha=2.5 via inverse CDF
	// approximation and check the MLE recovers it roughly.
	rng := rand.New(rand.NewSource(7))
	degs := make([]int, 20000)
	for i := range degs {
		u := rng.Float64()
		// Continuous approximation: x = xmin * (1-u)^(-1/(alpha-1)).
		x := 5 * math.Pow(1-u, -1/1.5)
		degs[i] = int(x)
	}
	alpha, xmin := PowerLawAlpha(degs)
	if xmin != 5 {
		t.Fatalf("xmin = %d, want 5", xmin)
	}
	if alpha < 2.2 || alpha > 2.8 {
		t.Errorf("alpha = %v, want ≈2.5", alpha)
	}
}

func TestPowerLawAlphaTooFewSamples(t *testing.T) {
	alpha, xmin := PowerLawAlpha([]int{1, 2, 3})
	if alpha != 0 || xmin != 0 {
		t.Errorf("got (%v,%v), want (0,0) for tiny input", alpha, xmin)
	}
}

// Property: Build then Validate always succeeds, and edge count never
// exceeds input count.
func TestQuickBuilderAlwaysValid(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 64
		b := NewBuilder(n, true)
		for i := 0; i+1 < len(raw); i += 2 {
			u := NodeID(raw[i] % n)
			v := NodeID(raw[i+1] % n)
			if err := b.AddWeightedEdge(u, v, 1); err != nil {
				return false
			}
		}
		g := b.Build()
		if g.Validate() != nil {
			return false
		}
		return g.NumEdges() <= len(raw)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: transpose preserves the multiset of edges (as a set here,
// since Build dedups) and total weight.
func TestQuickTransposeRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 32
		b := NewBuilder(n, true)
		for i := 0; i+1 < len(raw); i += 2 {
			_ = b.AddWeightedEdge(NodeID(raw[i]%n), NodeID(raw[i+1]%n), float64(raw[i]%7)+1)
		}
		g := b.Build()
		tr := g.Transpose()
		if tr.NumEdges() != g.NumEdges() {
			return false
		}
		ok := true
		g.VisitEdges(func(u, v NodeID, w float64) {
			if tr.Weight(v, u) != w {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

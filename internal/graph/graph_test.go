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
	g := NewBuilder(0).Build()
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
	b := NewBuilder(2)
	if err := b.AddEdge(0, 2); err == nil {
		t.Error("AddEdge(0,2) with n=2 succeeded, want error")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Error("AddEdge(-1,0) succeeded, want error")
	}
}

func TestBuilderMergesDuplicatesUnweighted(t *testing.T) {
	b := NewBuilder(2)
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

func TestBuilderGrow(t *testing.T) {
	b := NewBuilder(1)
	b.Grow(3)
	if err := b.AddEdge(2, 0); err != nil {
		t.Fatalf("AddEdge after Grow: %v", err)
	}
	g := b.Build()
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
}

func TestHasEdge(t *testing.T) {
	g, err := FromEdges(3, []NodeID{0, 0}, []NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Error("missing expected edges")
	}
	if g.HasEdge(1, 0) || g.HasEdge(1, 2) {
		t.Error("unexpected edge out of node 1")
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
	g.VisitEdges(func(u, v NodeID) {
		if !back.HasEdge(u, v) {
			t.Errorf("double transpose lost edge %d->%d", u, v)
		}
	})
}

func TestVisitEdges(t *testing.T) {
	g := buildDiamond(t)
	var got [][2]NodeID
	g.VisitEdges(func(u, v NodeID) {
		got = append(got, [2]NodeID{u, v})
	})
	want := [][2]NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("VisitEdges visited %v, want %v in row order", got, want)
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
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			u := NodeID(raw[i] % n)
			v := NodeID(raw[i+1] % n)
			if err := b.AddEdge(u, v); err != nil {
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

// Property: transpose preserves the set of edges (Build dedups), each
// reversed.
func TestQuickTransposeRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 32
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			_ = b.AddEdge(NodeID(raw[i]%n), NodeID(raw[i+1]%n))
		}
		g := b.Build()
		tr := g.Transpose()
		if tr.NumEdges() != g.NumEdges() || tr.Validate() != nil {
			return false
		}
		ok := true
		g.VisitEdges(func(u, v NodeID) {
			if !tr.HasEdge(v, u) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

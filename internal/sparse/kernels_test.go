package sparse

import (
	"math/rand"
	"testing"

	"scholarrank/internal/graph"
)

// randomCitationGraph builds a DAG-ish citation graph with a skewed
// in-degree distribution and some dangling nodes.
func randomCitationGraph(t testing.TB, n, outDeg int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, false)
	for i := 2; i < n; i++ {
		if rng.Intn(10) == 0 {
			continue // dangling: cites nothing
		}
		for r := 0; r < outDeg; r++ {
			// Bias toward low ids for in-degree skew.
			v := rng.Intn(rng.Intn(i) + 1)
			_ = b.AddEdge(graph.NodeID(i), graph.NodeID(v))
		}
	}
	return b.Build()
}

func TestEdgeChunksProperties(t *testing.T) {
	g := randomCitationGraph(t, 30_000, 8, 7)
	tr := NewTransition(g, nil)
	starts := chunkPlan(tr.n, func(v int) int64 { return tr.offsets[v] }, 1024, 64)
	if starts[0] != 0 || int(starts[len(starts)-1]) != tr.n {
		t.Fatalf("chunk plan does not cover [0,%d): %v…%v", tr.n, starts[0], starts[len(starts)-1])
	}
	total := tr.offsets[tr.n] + int64(tr.n)
	perChunk := total / int64(len(starts)-1)
	for c := 0; c+1 < len(starts); c++ {
		lo, hi := starts[c], starts[c+1]
		if hi <= lo {
			t.Fatalf("chunk %d empty or reversed: [%d,%d)", c, lo, hi)
		}
		work := tr.offsets[hi] - tr.offsets[lo] + int64(hi-lo)
		// Every chunk's work must be within one max-row of the ideal
		// share: a chunk can only exceed it by the final row it
		// absorbed.
		var maxRow int64
		for v := lo; v < hi; v++ {
			if w := tr.offsets[v+1] - tr.offsets[v] + 1; w > maxRow {
				maxRow = w
			}
		}
		if work > perChunk+maxRow {
			t.Errorf("chunk %d unbalanced: work=%d ideal=%d maxRow=%d", c, work, perChunk, maxRow)
		}
	}
}

func TestEdgeChunksSerialCutoffIsEdgeBased(t *testing.T) {
	// A small-n graph with dense rows must still get a multi-chunk
	// plan: the old n<4096 cutoff forced it serial.
	n := 2000
	b := graph.NewBuilder(n, false)
	rng := rand.New(rand.NewSource(3))
	for i := 1; i < n; i++ {
		for r := 0; r < 40; r++ {
			_ = b.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
		}
	}
	tr := NewTransition(b.Build(), nil)
	if tr.NumChunks() < 2 {
		t.Errorf("dense %d-node graph got a serial plan (%d edges, %d chunks)",
			n, b.Build().NumEdges(), tr.NumChunks())
	}
	// A tiny graph must collapse to a single chunk (inline kernels).
	tiny := NewTransition(diamond(t), nil)
	if tiny.NumChunks() != 1 {
		t.Errorf("diamond graph chunks = %d, want 1", tiny.NumChunks())
	}
}

// TestDampedStepMatchesUnfused checks the fused kernel against the
// composition of the separate passes it replaced, serially and under
// a pool.
func TestDampedStepMatchesUnfused(t *testing.T) {
	g := randomCitationGraph(t, 12_000, 6, 11)
	rng := rand.New(rand.NewSource(5))
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		tr := NewTransition(g, pool)
		n := tr.N()
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.Float64()
		}
		Normalize1(src)
		teleport := make([]float64, n)
		Uniform(teleport)
		const damping = 0.85

		want := make([]float64, n)
		tr.MulVec(want, src)
		dm := tr.DanglingMass(src)
		for i := range want {
			want[i] = damping*(want[i]+dm*teleport[i]) + (1-damping)*teleport[i]
		}
		wantRes := L1Diff(want, src)
		wantSum := Sum(want)
		wantDang := tr.DanglingMass(want)

		dst := make([]float64, n)
		res, sum, dang := tr.DampedStep(dst, src, teleport, damping, dm)
		if d := MaxDiff(dst, want); d > 1e-14 {
			t.Errorf("workers=%d: fused dst deviates by %v", workers, d)
		}
		if !almostEq(res, wantRes, 1e-12) {
			t.Errorf("workers=%d: residual %v, want %v", workers, res, wantRes)
		}
		if !almostEq(sum, wantSum, 1e-12) {
			t.Errorf("workers=%d: sum %v, want %v", workers, sum, wantSum)
		}
		if !almostEq(dang, wantDang, 1e-12) {
			t.Errorf("workers=%d: dangling %v, want %v", workers, dang, wantDang)
		}
	}
}

// TestDampedWalkFusedMatchesReference solves the same system with the
// fused driver and a hand-rolled unfused power iteration.
func TestDampedWalkFusedMatchesReference(t *testing.T) {
	g := randomCitationGraph(t, 5_000, 5, 13)
	pool := NewPool(3)
	tr := NewTransition(g, pool)
	n := tr.N()
	teleport := make([]float64, n)
	Uniform(teleport)
	const damping, tol = 0.85, 1e-10

	got, st, err := DampedWalk(tr, damping, teleport, IterOptions{Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("fused walk did not converge: %+v", st)
	}

	ref := Clone(teleport)
	next := make([]float64, n)
	for it := 0; it < DefaultMaxIter; it++ {
		tr.MulVec(next, ref)
		dm := tr.DanglingMass(ref)
		for i := range next {
			next[i] = damping*(next[i]+dm*teleport[i]) + (1-damping)*teleport[i]
		}
		d := L1Diff(next, ref)
		ref, next = next, ref
		if d < tol {
			break
		}
	}
	if d := MaxDiff(got, ref); d > 1e-9 {
		t.Errorf("fused walk deviates from reference by %v", d)
	}
	if !almostEq(Sum(got), 1, 1e-9) {
		t.Errorf("fused walk mass = %v, want 1", Sum(got))
	}
}

// TestReweightedMatchesRebuild verifies that reweighting a transition
// in place agrees with rebuilding it from a reweighted graph.
func TestReweightedMatchesRebuild(t *testing.T) {
	gb := graph.NewBuilder(6, false)
	edges := [][2]int{{1, 0}, {2, 0}, {2, 1}, {3, 1}, {3, 2}, {4, 0}, {4, 3}, {5, 2}}
	for _, e := range edges {
		_ = gb.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	g := gb.Build()
	weight := func(u, v int32) float64 { return 1 + 0.5*float64(u) + 0.25*float64(v) }

	wb := graph.NewBuilder(6, true)
	for _, e := range edges {
		_ = wb.AddWeightedEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), weight(int32(e[0]), int32(e[1])))
	}
	want := NewTransition(wb.Build(), nil)

	got := NewTransition(g, nil).Reweighted(weight)
	if got.NumDangling() != want.NumDangling() {
		t.Fatalf("dangling %d, want %d", got.NumDangling(), want.NumDangling())
	}
	x := []float64{0.1, 0.2, 0.15, 0.25, 0.2, 0.1}
	d1 := make([]float64, 6)
	d2 := make([]float64, 6)
	got.MulVec(d1, x)
	want.MulVec(d2, x)
	if d := MaxDiff(d1, d2); d > 1e-15 {
		t.Errorf("reweighted MulVec deviates by %v: %v vs %v", d, d1, d2)
	}
}

func TestBlendAndScaleDiffSteps(t *testing.T) {
	g := randomCitationGraph(t, 8_000, 5, 17)
	pool := NewPool(4)
	tr := NewTransition(g, pool)
	n := tr.N()
	rng := rand.New(rand.NewSource(23))
	src := make([]float64, n)
	r := make([]float64, n)
	for i := range src {
		src[i], r[i] = rng.Float64(), rng.Float64()
	}
	Normalize1(src)
	Normalize1(r)

	// A synthetic author-style layer: each row reads 0–3 of m entities
	// through an AuxGather CSR, and a venue-style single lookup with a
	// 10% no-venue sentinel.
	m := n / 4
	entScore := make([]float64, m)
	for i := range entScore {
		entScore[i] = rng.Float64()
	}
	Normalize1(entScore)
	fa := &AuxGather{Off: make([]int64, n+1), Vec: entScore}
	for v := 0; v < n; v++ {
		k := rng.Intn(4)
		for j := 0; j < k; j++ {
			fa.Idx = append(fa.Idx, int32(rng.Intn(m)))
		}
		fa.Off[v+1] = int64(len(fa.Idx))
	}
	venScore := make([]float64, m)
	for i := range venScore {
		venScore[i] = rng.Float64()
	}
	Normalize1(venScore)
	fv := &AuxLookup{Of: make([]int32, n), Vec: venScore}
	for v := range fv.Of {
		if rng.Intn(10) == 0 {
			fv.Of[v] = -1
		} else {
			fv.Of[v] = int32(rng.Intn(m))
		}
	}
	// Dense spread vectors the fused sweep must reproduce.
	faDense := make([]float64, n)
	fvDense := make([]float64, n)
	for v := 0; v < n; v++ {
		for _, e := range fa.Idx[fa.Off[v]:fa.Off[v+1]] {
			faDense[v] += entScore[e]
		}
		if o := fv.Of[v]; o >= 0 {
			fvDense[v] = venScore[o]
		}
	}
	const lc, la, lv, lt = 0.55, 0.15, 0.10, 0.20
	const aLeak, vLeak = 0.03, 0.07

	// Reference: the unfused composition.
	want := make([]float64, n)
	tr.MulVec(want, src)
	dm := tr.DanglingMass(src)
	for i := range want {
		want[i] = lc*(want[i]+dm*r[i]) + la*(faDense[i]+aLeak*r[i]) + lv*(fvDense[i]+vLeak*r[i]) + lt*r[i]
	}
	wantSum := Sum(want)

	dst := make([]float64, n)
	sum, dang := tr.BlendStep(dst, src, r, fa, fv, lc, la, lv, lt, dm, aLeak, vLeak)
	if d := MaxDiff(dst, want); d > 1e-14 {
		t.Errorf("BlendStep deviates by %v", d)
	}
	if !almostEq(sum, wantSum, 1e-12) {
		t.Errorf("BlendStep sum %v, want %v", sum, wantSum)
	}
	if !almostEq(dang, tr.DanglingMass(want), 1e-12) {
		t.Errorf("BlendStep dangling %v, want %v", dang, tr.DanglingMass(want))
	}

	// ScaleDiffStep == Normalize1 + L1Diff.
	wantScaled := Clone(want)
	Normalize1(wantScaled)
	wantRes := L1Diff(wantScaled, src)
	res := tr.ScaleDiffStep(dst, src, 1/sum)
	if d := MaxDiff(dst, wantScaled); d > 1e-14 {
		t.Errorf("ScaleDiffStep deviates by %v", d)
	}
	if !almostEq(res, wantRes, 1e-12) {
		t.Errorf("ScaleDiffStep residual %v, want %v", res, wantRes)
	}

	// Nil author/venue layers drop out of the blend.
	want2 := make([]float64, n)
	tr.MulVec(want2, src)
	for i := range want2 {
		want2[i] = lc*(want2[i]+dm*r[i]) + lt*r[i]
	}
	sum2, _ := tr.BlendStep(dst, src, r, nil, nil, lc, 0, 0, lt, dm, 0, 0)
	if d := MaxDiff(dst, want2); d > 1e-14 {
		t.Errorf("nil-layer BlendStep deviates by %v", d)
	}
	if !almostEq(sum2, Sum(want2), 1e-12) {
		t.Errorf("nil-layer sum %v, want %v", sum2, Sum(want2))
	}
}

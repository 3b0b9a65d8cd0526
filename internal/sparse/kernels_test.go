package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"scholarrank/internal/graph"
)

// randomCitationGraph builds a DAG-ish citation graph with a skewed
// in-degree distribution and some dangling nodes.
func randomCitationGraph(t testing.TB, n, outDeg int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
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
	b := graph.NewBuilder(n)
	rng := rand.New(rand.NewSource(3))
	for i := 1; i < n; i++ {
		for r := 0; r < 40; r++ {
			_ = b.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)))
		}
	}
	tr := NewTransition(b.Build(), nil)
	if tr.numChunks() < 2 {
		t.Errorf("dense %d-node graph got a serial plan (%d edges, %d chunks)",
			n, b.Build().NumEdges(), tr.numChunks())
	}
	// A tiny graph must collapse to a single chunk (inline kernels).
	tiny := NewTransition(diamond(t), nil)
	if tiny.numChunks() != 1 {
		t.Errorf("diamond graph chunks = %d, want 1", tiny.numChunks())
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

		dst, xs := make([]float64, n), make([]float64, n)
		tr.Prescale(xs, src)
		res, sum, dang := tr.DampedStep(dst, src, xs, teleport, damping, dm)
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

// TestReweightedMatchesRebuild verifies that the gap view of a
// transition agrees with the walk written out edge by edge, each edge
// weighing its gap decay over its citing node's total, including an
// edge whose citing node is older than the node it cites (gap clamped
// to zero).
func TestReweightedMatchesRebuild(t *testing.T) {
	gb := graph.NewBuilder(6)
	edges := [][2]int{{1, 0}, {2, 0}, {2, 1}, {3, 1}, {3, 2}, {4, 0}, {4, 3}, {5, 2}}
	for _, e := range edges {
		_ = gb.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	g := gb.Build()
	year := []int32{1990, 2003, 2001, 2010, 2012, 2004}
	decay := gapDecay(0.4)
	weight := func(u, v int) float64 { return decay(max(0, int(year[u]-year[v]))) }
	out := make([]float64, 6)
	for _, e := range edges {
		out[e[0]] += weight(e[0], e[1])
	}

	got, err := NewTransition(g, nil).GapWeighted(year, decay)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.dangling) != 1 {
		t.Fatalf("dangling %d, want 1 (node 0)", len(got.dangling))
	}
	x := []float64{0.1, 0.2, 0.15, 0.25, 0.2, 0.1}
	d1 := make([]float64, 6)
	d2 := make([]float64, 6)
	got.MulVec(d1, x)
	for _, e := range edges {
		d2[e[1]] += x[e[0]] * weight(e[0], e[1]) / out[e[0]]
	}
	if d := MaxDiff(d1, d2); d > 1e-15 {
		t.Errorf("gap-weighted MulVec deviates by %v: %v vs %v", d, d1, d2)
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
	u := 0.01 / float64(n) // a uniform restart share that takes no leaked mass

	// Reference: the unfused composition.
	want := make([]float64, n)
	tr.MulVec(want, src)
	dm := tr.DanglingMass(src)
	for i := range want {
		want[i] = lc*(want[i]+dm*r[i]) + la*(faDense[i]+aLeak*r[i]) + lv*(fvDense[i]+vLeak*r[i]) + lt*r[i] + u
	}
	wantSum := Sum(want)

	dst, xs := make([]float64, n), make([]float64, n)
	tr.Prescale(xs, src)
	sum, dang := tr.BlendStep(dst, src, xs, r, fa, fv, lc, la, lv, lt, u, dm, aLeak, vLeak)
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
	res := tr.ScaleDiffStep(dst, src, xs, 1/sum)
	if d := MaxDiff(dst, wantScaled); d > 1e-14 {
		t.Errorf("ScaleDiffStep deviates by %v", d)
	}
	if !almostEq(res, wantRes, 1e-12) {
		t.Errorf("ScaleDiffStep residual %v, want %v", res, wantRes)
	}
	for v := range xs {
		if xs[v] != dst[v]*tr.inv[v] {
			t.Fatalf("ScaleDiffStep left xs[%d] = %v, want the rescaled dst pre-scaled %v", v, xs[v], dst[v]*tr.inv[v])
		}
	}

	// Nil author/venue layers drop out of the blend.
	want2 := make([]float64, n)
	tr.MulVec(want2, src)
	for i := range want2 {
		want2[i] = lc*(want2[i]+dm*r[i]) + lt*r[i]
	}
	tr.Prescale(xs, src)
	sum2, _ := tr.BlendStep(dst, src, xs, r, nil, nil, lc, 0, 0, lt, 0, dm, 0, 0)
	if d := MaxDiff(dst, want2); d > 1e-14 {
		t.Errorf("nil-layer BlendStep deviates by %v", d)
	}
	if !almostEq(sum2, Sum(want2), 1e-12) {
		t.Errorf("nil-layer sum %v, want %v", sum2, Sum(want2))
	}
}

// gapFixture is a small random citation graph over 400 articles with
// the years 1665–2025 (361 distinct years, rising with the id): each
// article cites up to three earlier ones, one citation in eight points
// at a younger article (the citing article is the older, gap < 0), and
// every eleventh article cites nothing.
func gapFixture(t *testing.T, seed int64) (*graph.Graph, []int32) {
	t.Helper()
	const n = 400
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		if i%11 == 0 {
			continue
		}
		for r := 0; r < 1+rng.Intn(3); r++ {
			j := rng.Intn(i)
			if rng.Intn(8) == 0 && i < n-1 {
				j = i + 1 + rng.Intn(n-1-i)
			}
			_ = b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.Build(), chronoYears(n)
}

// denseGapMatrix is the gap-weighted transition written out densely
// from the graph's own edges: m[u][v] = exp(-rho·max(0, y_u − y_v)) /
// Σ_{v'∈out(u)} exp(-rho·max(0, y_u − y_v')).
func denseGapMatrix(g *graph.Graph, year []int32, rho float64) [][]float64 {
	n := g.NumNodes()
	m := make([][]float64, n)
	for u := range m {
		m[u] = make([]float64, n)
		var out float64
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			w := math.Exp(-rho * math.Max(0, float64(year[u]-year[v])))
			m[u][v] = w
			out += w
		}
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			m[u][v] /= out
		}
	}
	return m
}

// maxRelDiff returns the largest |got[i] − want[i]| / |want[i]|, with
// a zero want requiring a zero got.
func maxRelDiff(got, want []float64) float64 {
	var worst float64
	for i := range want {
		d := math.Abs(got[i] - want[i])
		if want[i] != 0 {
			d /= math.Abs(want[i])
		} else if d != 0 {
			d = math.Inf(1)
		}
		worst = max(worst, d)
	}
	return worst
}

// TestGapViewMatchesDenseReference checks the gap view's gather — the
// per-gap table indexed through the integer year column, over a source
// pre-scaled by the inverse out-weight — against the dense matrix
// exp(-rho·max(0, y_u − y_v)) / Σ_out, entry by entry: MulVec, and one
// Gauss–Seidel DampedStep (rows from the top, sources above the row
// read fresh, then renormalised). The graphs span 361 distinct years
// and carry citations of younger articles and dangling articles.
func TestGapViewMatchesDenseReference(t *testing.T) {
	const damping = 0.85
	for _, seed := range []int64{1, 2, 3} {
		for _, rho := range []float64{0.05, 0.5} {
			g, year := gapFixture(t, seed)
			n := g.NumNodes()
			if distinct := len(slices.Compact(slices.Clone(year))); distinct < 361 || year[0] != 1665 || year[n-1] != 2025 {
				t.Fatalf("fixture spans %d distinct years %d–%d", distinct, year[0], year[n-1])
			}
			m := denseGapMatrix(g, year, rho)
			var back, dangling int
			g.VisitEdges(func(u, v graph.NodeID) {
				if year[u] < year[v] {
					back++
				}
			})
			for u := 0; u < n; u++ {
				if g.OutDegree(graph.NodeID(u)) == 0 {
					dangling++
				}
			}
			if back == 0 || dangling == 0 {
				t.Fatalf("fixture has %d younger-cited edges and %d dangling articles", back, dangling)
			}
			rng := rand.New(rand.NewSource(seed))
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64()
			}
			Normalize1(x)
			teleport := make([]float64, n)
			Uniform(teleport)

			gap := gapView(t, NewTransition(g, nil), year, rho)
			got := make([]float64, n)
			gap.MulVec(got, x)
			want := make([]float64, n)
			for u := range m {
				for v, w := range m[u] {
					want[v] += x[u] * w
				}
			}
			if d := maxRelDiff(got, want); d > 1e-15 {
				t.Errorf("seed %d rho %g: MulVec deviates from the dense reference by %g relative", seed, rho, d)
			}

			var dm float64
			for u := 0; u < n; u++ {
				if g.OutDegree(graph.NodeID(u)) == 0 {
					dm += x[u]
				}
			}
			tcoef := damping*dm + 1 - damping
			want = make([]float64, n)
			var total float64 // summed as the rows are produced
			for v := n - 1; v >= 0; v-- {
				var s float64
				for u := range m {
					if u > v {
						s += want[u] * m[u][v]
					} else {
						s += x[u] * m[u][v]
					}
				}
				want[v] = damping*s + tcoef*teleport[v]
				total += want[v]
			}
			Scale(want, 1/total)
			gs := gap.GaussSeidel()
			xs := make([]float64, n)
			gs.Prescale(xs, x)
			gs.DampedStep(got, x, xs, teleport, damping, gs.DanglingMass(x))
			if d := maxRelDiff(got, want); d > 1e-15 {
				t.Errorf("seed %d rho %g: Gauss–Seidel DampedStep deviates from the dense reference by %g relative", seed, rho, d)
			}
		}
	}
}

// TestGapWeightedRejectsBadYears checks the gap view refuses a year
// column of the wrong length, and one whose span would size the per-gap
// table past maxYearSpan entries.
func TestGapWeightedRejectsBadYears(t *testing.T) {
	tr := NewTransition(diamond(t), nil)
	if _, err := tr.GapWeighted([]int32{2000, 2001}, gapDecay(0.1)); err == nil {
		t.Error("year column of 2 entries for 4 rows accepted")
	}
	if _, err := tr.GapWeighted([]int32{-1 << 20, 0, 1, 1 << 20}, gapDecay(0.1)); err == nil {
		t.Error("year span of 2^21 accepted")
	}
	if _, err := tr.GapWeighted([]int32{1665, 1700, 1800, 2025}, gapDecay(0.1)); err != nil {
		t.Errorf("years 1665–2025: %v", err)
	}
}

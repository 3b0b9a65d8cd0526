package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scholarrank/internal/graph"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVecBasics(t *testing.T) {
	x := []float64{1, 2, 3}
	if s := Sum(x); s != 6 {
		t.Errorf("Sum = %v", s)
	}
	Uniform(x)
	for _, v := range x {
		if !almostEq(v, 1.0/3, 1e-15) {
			t.Errorf("Uniform element = %v", v)
		}
	}
	Uniform(nil) // must not panic
	Fill(x, 2)
	if x[1] != 2 {
		t.Errorf("Fill failed: %v", x)
	}
}

func TestDiffs(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 2, 1}
	if d := L1Diff(a, b); d != 3 {
		t.Errorf("L1Diff = %v, want 3", d)
	}
	if d := MaxDiff(a, b); d != 2 {
		t.Errorf("MaxDiff = %v, want 2", d)
	}
}

func TestNormalize1(t *testing.T) {
	x := []float64{1, 3}
	if s := Normalize1(x); s != 4 {
		t.Errorf("original sum = %v", s)
	}
	if !almostEq(Sum(x), 1, 1e-15) {
		t.Errorf("normalized sum = %v", Sum(x))
	}
	zero := []float64{0, 0}
	Normalize1(zero)
	if zero[0] != 0 {
		t.Error("zero vector mutated")
	}
}

func TestNormalizeMax(t *testing.T) {
	x := []float64{2, 8, 4}
	if m := NormalizeMax(x); m != 8 {
		t.Errorf("max = %v", m)
	}
	if x[1] != 1 || x[0] != 0.25 {
		t.Errorf("scaled = %v", x)
	}
	z := []float64{0, 0}
	if m := NormalizeMax(z); m != 0 {
		t.Errorf("zero max = %v", m)
	}
}

func TestMinMaxScale(t *testing.T) {
	x := []float64{10, 20, 15}
	MinMaxScale(x)
	if x[0] != 0 || x[1] != 1 || x[2] != 0.5 {
		t.Errorf("MinMaxScale = %v", x)
	}
	c := []float64{7, 7}
	MinMaxScale(c)
	if c[0] != 0 || c[1] != 0 {
		t.Errorf("constant MinMaxScale = %v", c)
	}
	MinMaxScale(nil) // no panic
}

func TestScaleAddDot(t *testing.T) {
	x := []float64{1, 2}
	Scale(x, 3)
	if x[1] != 6 {
		t.Errorf("Scale = %v", x)
	}
	AddScaled(x, 2, []float64{1, 1})
	if x[0] != 5 || x[1] != 8 {
		t.Errorf("AddScaled = %v", x)
	}
	AddConst(x, 1)
	if x[0] != 6 {
		t.Errorf("AddConst = %v", x)
	}
	if d := Dot([]float64{1, 2}, []float64{3, 4}); d != 11 {
		t.Errorf("Dot = %v", d)
	}
	if n := L2Norm([]float64{3, 4}); n != 5 {
		t.Errorf("L2Norm = %v", n)
	}
}

func TestClone(t *testing.T) {
	x := []float64{1, 2}
	y := Clone(x)
	y[0] = 9
	if x[0] != 1 {
		t.Error("Clone aliases input")
	}
}

// diamond: 0->1, 0->2, 1->3, 2->3 (3 is dangling).
func diamond(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.NodeID{0, 0, 1, 2}, []graph.NodeID{1, 2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTransitionMulVec(t *testing.T) {
	tr := NewTransition(diamond(t), nil)
	if tr.N() != 4 {
		t.Fatalf("N = %d", tr.N())
	}
	if tr.NumDangling() != 1 {
		t.Fatalf("NumDangling = %d, want 1", tr.NumDangling())
	}
	x := []float64{0.25, 0.25, 0.25, 0.25}
	dst := make([]float64, 4)
	tr.MulVec(dst, x)
	// Node 0 has no in-edges; 1 and 2 each get 0.25/2; 3 gets 0.25+0.25.
	want := []float64{0, 0.125, 0.125, 0.5}
	for i := range want {
		if !almostEq(dst[i], want[i], 1e-15) {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	if dm := tr.DanglingMass(x); dm != 0.25 {
		t.Errorf("DanglingMass = %v, want 0.25", dm)
	}
}

func TestTransitionWeighted(t *testing.T) {
	// 0 -> 1 (w=1), 0 -> 2 (w=3): mass splits 1/4, 3/4.
	g, err := graph.FromWeightedEdges(3, []graph.NodeID{0, 0}, []graph.NodeID{1, 2}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransition(g, nil)
	x := []float64{1, 0, 0}
	dst := make([]float64, 3)
	tr.MulVec(dst, x)
	if !almostEq(dst[1], 0.25, 1e-15) || !almostEq(dst[2], 0.75, 1e-15) {
		t.Errorf("weighted split = %v", dst)
	}
}

func TestTransitionZeroWeightRowIsDangling(t *testing.T) {
	g, err := graph.FromWeightedEdges(2, []graph.NodeID{0}, []graph.NodeID{1}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransition(g, nil)
	if tr.NumDangling() != 2 {
		t.Errorf("NumDangling = %d, want 2 (zero-weight row counts)", tr.NumDangling())
	}
	dst := make([]float64, 2)
	tr.MulVec(dst, []float64{1, 0})
	if dst[1] != 0 {
		t.Errorf("zero-weight edge leaked mass: %v", dst)
	}
}

func TestTransitionPreservesMassWithoutDangling(t *testing.T) {
	// Cycle 0->1->2->0 is mass preserving.
	g, err := graph.FromEdges(3, []graph.NodeID{0, 1, 2}, []graph.NodeID{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransition(g, nil)
	x := []float64{0.2, 0.3, 0.5}
	dst := make([]float64, 3)
	tr.MulVec(dst, x)
	if !almostEq(Sum(dst), 1, 1e-15) {
		t.Errorf("mass not preserved: %v", Sum(dst))
	}
}

func TestTransitionParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 10_000
	b := graph.NewBuilder(n, false)
	for i := 0; i < 6*n; i++ {
		_ = b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g := b.Build()
	serial := NewTransition(g, nil)
	pool := NewPool(4)
	par := NewTransition(g, pool)
	if par.NumChunks() < 2 {
		t.Fatalf("NumChunks = %d, want a multi-chunk plan for %d edges", par.NumChunks(), g.NumEdges())
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	Normalize1(x)
	d1 := make([]float64, n)
	d2 := make([]float64, n)
	serial.MulVec(d1, x)
	par.MulVec(d2, x)
	if d := MaxDiff(d1, d2); d > 1e-15 {
		t.Errorf("parallel deviates from serial by %v", d)
	}
	par.WithPool(nil).MulVec(d2, x) // a serial view of the same operator
	if d := MaxDiff(d1, d2); d > 1e-15 {
		t.Errorf("serial view deviates from serial by %v", d)
	}
}

func TestFixedPointConverges(t *testing.T) {
	// x <- 0.5*x + 0.5 converges to 1 elementwise.
	step := func(dst, src []float64) {
		for i := range dst {
			dst[i] = 0.5*src[i] + 0.5
		}
	}
	x, st, err := FixedPoint([]float64{0, 0}, step, IterOptions{Tol: 1e-12, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %+v", st)
	}
	if !almostEq(x[0], 1, 1e-10) {
		t.Errorf("fixed point = %v", x)
	}
	if len(st.ResidualTrace) != st.Iterations {
		t.Errorf("trace length %d, iterations %d", len(st.ResidualTrace), st.Iterations)
	}
	// Residuals must be decreasing for this contraction.
	for i := 1; i < len(st.ResidualTrace); i++ {
		if st.ResidualTrace[i] > st.ResidualTrace[i-1] {
			t.Errorf("residual increased at %d: %v", i, st.ResidualTrace)
			break
		}
	}
}

func TestFixedPointMaxIter(t *testing.T) {
	step := func(dst, src []float64) {
		for i := range dst {
			dst[i] = src[i] + 1 // never converges
		}
	}
	_, st, err := FixedPoint([]float64{0}, step, IterOptions{MaxIter: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Error("reported convergence for divergent step")
	}
	if st.Iterations != 7 {
		t.Errorf("Iterations = %d, want 7", st.Iterations)
	}
}

func TestFixedPointBadOptions(t *testing.T) {
	step := func(dst, src []float64) { copy(dst, src) }
	if _, _, err := FixedPoint([]float64{0}, step, IterOptions{Tol: -1}); err == nil {
		t.Error("negative Tol accepted")
	}
	if _, _, err := FixedPoint([]float64{0}, step, IterOptions{MaxIter: -1}); err == nil {
		t.Error("negative MaxIter accepted")
	}
}

func TestFixedPointDoesNotMutateInit(t *testing.T) {
	init := []float64{0.5}
	step := func(dst, src []float64) { dst[0] = src[0] * 0.1 }
	_, _, err := FixedPoint(init, step, IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if init[0] != 0.5 {
		t.Errorf("init mutated: %v", init)
	}
}

// Property: MulVec never creates mass (sum of output <= sum of input,
// up to float error), for arbitrary random graphs and inputs.
func TestQuickMulVecNoMassCreation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(n, false)
		for i := 0; i < n*3; i++ {
			_ = b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		tr := NewTransition(b.Build(), nil)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		dst := make([]float64, n)
		tr.MulVec(dst, x)
		return Sum(dst) <= Sum(x)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: input mass = output mass + dangling mass (conservation).
func TestQuickMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(n, true)
		for i := 0; i < n*2; i++ {
			_ = b.AddWeightedEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), rng.Float64()+0.1)
		}
		tr := NewTransition(b.Build(), nil)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		dst := make([]float64, n)
		tr.MulVec(dst, x)
		return almostEq(Sum(dst)+tr.DanglingMass(x), Sum(x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestResized(t *testing.T) {
	x := []float64{1, 2, 3}
	grown := Resized(x, 5)
	if len(grown) != 5 || grown[0] != 1 || grown[2] != 3 || grown[3] != 0 || grown[4] != 0 {
		t.Errorf("Resized grow = %v", grown)
	}
	shrunk := Resized(x, 2)
	if len(shrunk) != 2 || shrunk[0] != 1 || shrunk[1] != 2 {
		t.Errorf("Resized shrink = %v", shrunk)
	}
	grown[0] = 99
	if x[0] != 1 {
		t.Error("Resized aliases its input")
	}
	if got := Resized(nil, 2); len(got) != 2 || got[0] != 0 {
		t.Errorf("Resized(nil) = %v", got)
	}
}

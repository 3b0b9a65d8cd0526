package rank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/graph"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// relatedFixture builds two citation clusters joined by one bridge:
//
//	cluster A: a0 <- a1, a0 <- a2, a1 <- a2
//	cluster B: b0 <- b1, b0 <- b2, b1 <- b2
//	bridge:    b0 cites a0
func relatedFixture(t *testing.T) (*hetnet.Network, map[string]corpus.ArticleID) {
	t.Helper()
	s := corpus.NewBuilder()
	ids := map[string]corpus.ArticleID{}
	for i, key := range []string{"a0", "a1", "a2", "b0", "b1", "b2"} {
		id, err := s.AddArticle(corpus.ArticleMeta{Key: key, Year: 2000 + i, Venue: corpus.NoVenue})
		if err != nil {
			t.Fatal(err)
		}
		ids[key] = id
	}
	for _, c := range [][2]string{
		{"a1", "a0"}, {"a2", "a0"}, {"a2", "a1"},
		{"b1", "b0"}, {"b2", "b0"}, {"b2", "b1"},
		{"b0", "a0"},
	} {
		if err := s.AddCitation(ids[c[0]], ids[c[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return hetnet.Build(s.Freeze()), ids
}

func TestRelatedFindsOwnCluster(t *testing.T) {
	net, ids := relatedFixture(t)
	ri, err := NewRelatedIndex(net, RelatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ri.Related(ids["a2"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results", len(got))
	}
	// a2's closest relatives are a0 and a1, not the b cluster.
	want := map[int]bool{int(ids["a0"]): true, int(ids["a1"]): true}
	for _, i := range got {
		if !want[i] {
			t.Errorf("unexpected related article %d", i)
		}
	}
}

func TestRelatedExcludesSeed(t *testing.T) {
	net, ids := relatedFixture(t)
	ri, err := NewRelatedIndex(net, RelatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ri.Related(ids["a0"], 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range got {
		if i == int(ids["a0"]) {
			t.Error("seed included in results")
		}
	}
	// Everything is reachable through the bridge in the bidirectional
	// walk, so all 5 other articles appear.
	if len(got) != 5 {
		t.Errorf("got %d results, want 5", len(got))
	}
}

func TestRelatedValidation(t *testing.T) {
	net, _ := relatedFixture(t)
	if _, err := NewRelatedIndex(net, RelatedOptions{Damping: 2}); !errors.Is(err, ErrBadParam) {
		t.Errorf("damping 2: %v", err)
	}
	ri, err := NewRelatedIndex(net, RelatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ri.Related(99, 3); !errors.Is(err, ErrBadParam) {
		t.Errorf("out-of-range seed: %v", err)
	}
	got, err := ri.Related(0, 0)
	if err != nil || got != nil {
		t.Errorf("k=0: %v %v", got, err)
	}
}

func TestRelatedIsolatedSeed(t *testing.T) {
	s := corpus.NewBuilder()
	if _, err := s.AddArticle(corpus.ArticleMeta{Key: "solo", Year: 2000, Venue: corpus.NoVenue}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddArticle(corpus.ArticleMeta{Key: "other", Year: 2001, Venue: corpus.NoVenue}); err != nil {
		t.Fatal(err)
	}
	ri, err := NewRelatedIndex(hetnet.Build(s.Freeze()), RelatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ri.Related(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// No links at all: the walk never leaves the seed, so the other
	// article collects no mass and the result is empty.
	if len(got) != 0 {
		t.Errorf("isolated seed returned %v", got)
	}
}

// relatedOracle is the construction RelatedIndex replaced, kept as the
// reference: the citation graph symmetrised through graph.Builder in
// store order (its dedup makes a reciprocal pair count once), a
// Transition over that copy, and a damped walk from a dense one-hot
// teleport.
type relatedOracle struct {
	trans   *sparse.Transition
	damping float64
	iter    sparse.IterOptions
}

func newRelatedOracle(t testing.TB, net *hetnet.Network, opts RelatedOptions) *relatedOracle {
	t.Helper()
	src := net.Citations
	b := graph.NewBuilder(src.NumNodes())
	src.VisitEdges(func(u, v graph.NodeID) {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(v, u); err != nil {
			t.Fatal(err)
		}
	})
	if opts.Damping == 0 {
		opts.Damping = DefaultDamping
	}
	return &relatedOracle{trans: sparse.NewTransition(b.Build(), nil), damping: opts.Damping, iter: opts.Iter}
}

// walk returns the stationary scores of the walk from seed, in store
// order, seed included.
func (o *relatedOracle) walk(t testing.TB, seed int32) ([]float64, sparse.IterStats) {
	t.Helper()
	teleport := make([]float64, o.trans.N())
	teleport[seed] = 1
	scores, stats, err := sparse.DampedWalk(o.trans, o.damping, teleport, o.iter)
	if err != nil {
		t.Fatal(err)
	}
	return scores, stats
}

// related selects from the oracle's scores exactly as Related does.
func (o *relatedOracle) related(t testing.TB, seed int32, k int) []int {
	t.Helper()
	scores, _ := o.walk(t, seed)
	scores[seed] = 0
	var out []int
	for _, i := range TopK(scores, k+1) {
		if i != int(seed) && scores[i] != 0 && len(out) < k {
			out = append(out, i)
		}
	}
	return out
}

// relatedPropertyNetwork builds a random corpus with what the walk
// must survive: reciprocal citations, duplicate refs, articles nobody
// links to or from (the last tenth), and a late hub that forces a
// non-identity solver permutation. It returns one article of a
// reciprocal pair.
func relatedPropertyNetwork(t testing.TB, seed int64, n int) (*hetnet.Network, int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := corpus.NewBuilder()
	for i := 0; i < n; i++ {
		if _, err := b.AddArticle(corpus.ArticleMeta{Key: fmt.Sprintf("p%d", i), Year: 1990 + rng.Intn(30), Venue: corpus.NoVenue}); err != nil {
			t.Fatal(err)
		}
	}
	cite := func(u, v int) {
		if u == v {
			return
		}
		if err := b.AddCitation(corpus.ArticleID(u), corpus.ArticleID(v)); err != nil {
			t.Fatal(err)
		}
	}
	linked := n - n/10
	hub := linked - 1
	reciprocal := int32(-1)
	for u := 0; u < linked; u++ {
		if u%3 != 0 {
			cite(u, hub)
		}
		for r := rng.Intn(5); r > 0; r-- {
			v := rng.Intn(linked)
			cite(u, v)
			switch rng.Intn(6) {
			case 0:
				cite(v, u)
				if u != v {
					reciprocal = int32(u)
				}
			case 1:
				cite(u, v) // duplicate ref
			}
		}
	}
	net := hetnet.Build(b.Freeze())
	if net.SolverView().Perm() == nil {
		t.Fatal("fixture produced an identity solver permutation")
	}
	if reciprocal < 0 {
		t.Fatal("fixture produced no reciprocal citation")
	}
	return net, reciprocal
}

// TestRelatedMatchesSymmetrisedOracle is the equivalence property of
// the graph-free index: on random corpora, under a non-identity solver
// permutation, every walk's full score vector equals the oracle's to
// 1e-12 — the row sums are reassociated (solver order; in-edges, then
// out-edges, minus reciprocals), so equality is to rounding, not bit
// for bit — at the same sweep count, and the top-k agrees wherever the
// oracle's scores tell two articles apart by more than that. The index
// extrapolates at its default cadence unless told another, so the
// oracle is driven at the same one: corpus 11 pins the default,
// corpora 12 and 13 an explicit cadence.
func TestRelatedMatchesSymmetrisedOracle(t *testing.T) {
	const k = 10
	for _, cseed := range []int64{11, 12, 13} {
		net, reciprocal := relatedPropertyNetwork(t, cseed, 400)
		n := net.NumArticles()
		opts := RelatedOptions{Workers: 2}
		oracleOpts := RelatedOptions{Iter: sparse.IterOptions{AitkenEvery: relatedAitkenEvery}}
		if cseed != 11 {
			opts.Iter.AitkenEvery = int(cseed) - 6
			oracleOpts.Iter = opts.Iter
		}
		ri, err := NewRelatedIndex(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newRelatedOracle(t, net, oracleOpts)
		isolated := int32(n - 1)
		extrapolated := 0
		for _, seed := range []int32{0, 7, int32(n / 3), reciprocal, isolated} {
			want, wst := oracle.walk(t, seed)
			sc := ri.scratch.Get().(*relatedScratch)
			got, gst, err := ri.walk(context.Background(), seed, 0, sc)
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.MaxDiff(got, want); d > 1e-12 {
				t.Errorf("corpus %d seed %d: scores differ from the oracle by %g", cseed, seed, d)
			}
			ri.scratch.Put(sc)
			if gst.Iterations != wst.Iterations || gst.Extrapolations != wst.Extrapolations || !gst.Converged {
				t.Errorf("corpus %d seed %d: %d sweeps, %d extrapolations (converged=%v), oracle %d and %d",
					cseed, seed, gst.Iterations, gst.Extrapolations, gst.Converged, wst.Iterations, wst.Extrapolations)
			}
			extrapolated += gst.Extrapolations
			gotTop, err := ri.Related(seed, k)
			if err != nil {
				t.Fatal(err)
			}
			wantTop := oracle.related(t, seed, k)
			if len(gotTop) != len(wantTop) {
				t.Errorf("corpus %d seed %d: %d results, oracle %d", cseed, seed, len(gotTop), len(wantTop))
				continue
			}
			for i := range wantTop {
				if gotTop[i] != wantTop[i] && math.Abs(want[gotTop[i]]-want[wantTop[i]]) > 1e-12 {
					t.Errorf("corpus %d seed %d position %d: article %d, oracle %d", cseed, seed, i+1, gotTop[i], wantTop[i])
				}
			}
			if seed == isolated && len(gotTop) != 0 {
				t.Errorf("corpus %d: isolated seed returned %v", cseed, gotTop)
			}
		}
		if extrapolated == 0 {
			t.Errorf("corpus %d: no walk accepted an extrapolation; the cadence is not on", cseed)
		}
	}
}

// TestRelatedTieBreaksByStoreIndex is the exact-tie fixture: two leaves
// that cite only the seed collect bit-identical mass, and the lower
// store index must win even when the solver order lists them the other
// way round — the walk runs in solver order, the selection does not.
func TestRelatedTieBreaksByStoreIndex(t *testing.T) {
	s := corpus.NewBuilder()
	for i, key := range []string{"seed", "leafA", "leafB", "far"} {
		if _, err := s.AddArticle(corpus.ArticleMeta{Key: key, Year: 2000 + i, Venue: corpus.NoVenue}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range [][2]corpus.ArticleID{{1, 0}, {2, 0}, {0, 3}} {
		if err := s.AddCitation(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	net := hetnet.Build(s.Freeze())
	// Freeze's own permutation keeps symmetric leaves in store order,
	// so reverse the whole order by hand.
	perm, err := sparse.NewPermutation([]int32{3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	solverOrder := net.Citations.Permute(perm.Fwd())
	pair, err := sparse.NewTransposePair(sparse.NewTransition(solverOrder, nil), solverOrder, nil)
	if err != nil {
		t.Fatal(err)
	}
	ri := newRelatedIndex(pair, perm, RelatedOptions{Damping: DefaultDamping})
	sc := ri.scratch.Get().(*relatedScratch)
	scores, _, err := ri.walk(context.Background(), 0, 0, sc)
	if err != nil {
		t.Fatal(err)
	}
	if scores[1] != scores[2] || scores[1] == 0 {
		t.Fatalf("leaves do not tie exactly: %v vs %v", scores[1], scores[2])
	}
	ri.scratch.Put(sc)
	got, err := ri.Related(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := newRelatedOracle(t, net, RelatedOptions{}).related(t, 0, 1); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("tie broke to %v, oracle %v", got, want)
	}
	if got[0] != 1 {
		t.Errorf("tie broke to article %d, want the lower store index 1", got[0])
	}
}

// TestRelatedReportsNonConvergence checks a walk stopped by MaxIter
// says so instead of passing for a converged ranking.
func TestRelatedReportsNonConvergence(t *testing.T) {
	net, ids := relatedFixture(t)
	ri, err := NewRelatedIndex(net, RelatedOptions{Iter: sparse.IterOptions{MaxIter: 2}})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := ri.RelatedStats(context.Background(), ids["a2"], 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged || stats.Certified || stats.Iterations != 2 || stats.Residual <= 0 {
		t.Errorf("stats = %+v, want 2 unconverged, uncertified sweeps with a residual", stats)
	}
	if len(got) == 0 {
		t.Error("unconverged walk returned no ranking")
	}
}

// powerLawNetwork is a preferential-attachment corpus of n articles,
// twelve references each, with its solver view built and its in-edge
// operator in place — the state a network is in once it has been
// solved.
func powerLawNetwork(t testing.TB, n int) *hetnet.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	b := corpus.NewBuilder()
	// targets holds one entry per (in-edge + article), so a uniform
	// draw approximates degree-proportional selection.
	targets := make([]corpus.ArticleID, 0, 13*n)
	for i := 0; i < n; i++ {
		id, err := b.AddArticle(corpus.ArticleMeta{Key: fmt.Sprintf("p%d", i), Year: 1980 + i*40/n, Venue: corpus.NoVenue})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 12 && i > 0; r++ {
			v := targets[rng.Intn(len(targets))]
			if err := b.AddCitation(id, v); err != nil {
				t.Fatal(err)
			}
			targets = append(targets, v)
		}
		targets = append(targets, id)
	}
	net := hetnet.Build(b.Freeze())
	net.SolverView().CitationTransition()
	return net
}

// TestRelatedIndexAllocatesPerRow pins "no second graph" as a number:
// over a solved 100k-article power-law network the index allocates the
// inverse-degree vector, a chunk plan and a pool handle — at most 24
// bytes per article plus a constant, nothing proportional to the
// citation count.
func TestRelatedIndexAllocatesPerRow(t *testing.T) {
	net := powerLawNetwork(t, 100_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewRelatedIndex(net, RelatedOptions{Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	rows, edges := uint64(net.NumArticles()), uint64(net.Citations.NumEdges())
	if limit := 24*rows + 1<<16; got > limit {
		t.Errorf("index over %d articles allocated %d bytes, want <= %d", rows, got, limit)
	}
	if got >= 4*edges { // the smallest per-edge stream is a 4-byte endpoint
		t.Errorf("index allocated %d bytes over %d citations — per-edge memory", got, edges)
	}
}

// TestRelatedWalkAllocatesNothingPerRow pins the pooled working set: on
// a 10k-article network, once one walk has filled the index's scratch,
// another walk allocates a few kilobytes of closures, pool tasks and
// the top-k selection, and no corpus-sized vector (one is 80 KB here).
// The byte count is the least of several walks, because the race
// detector makes sync.Pool drop a share of what is put back.
func TestRelatedWalkAllocatesNothingPerRow(t *testing.T) {
	net := powerLawNetwork(t, 10_000)
	for _, workers := range []int{1, 2} {
		ri, err := NewRelatedIndex(net, RelatedOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		seed := int32(net.NumArticles() / 2)
		walk := func() {
			if _, err := ri.Related(seed, 10); err != nil {
				t.Fatal(err)
			}
		}
		walk() // fills the pooled scratch
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			walk()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 64<<10 {
			t.Errorf("workers=%d: a walk on a recycled scratch allocated %d bytes, want < 64 KiB", workers, least)
		}
		// About one per sweep inline and two on the pool: a count that
		// grew with the rows or the edges would be far past this.
		if allocs := testing.AllocsPerRun(5, walk); allocs > 200 {
			t.Errorf("workers=%d: %.0f allocations per walk, want <= 200", workers, allocs)
		}
	}
}

// TestRelatedCertifiedMatchesExactWalk checks the certificate against
// the oracle walked to 1e-14 on the random oracle corpora: for k of 1,
// 10 and 20 and seeds of degree 0, 1 and the maximum, every walk the
// certificate stopped returns exactly the oracle's ordered top k, a
// certified top 10 is the prefix of the certified top 20, and a walk
// the certificate could not stop ran to Tol. The isolated seed still
// returns nothing.
func TestRelatedCertifiedMatchesExactWalk(t *testing.T) {
	certified := 0
	for _, cseed := range []int64{11, 12, 13} {
		net, reciprocal := relatedPropertyNetwork(t, cseed, 400)
		n := net.NumArticles()
		ri, err := NewRelatedIndex(net, RelatedOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		exact := newRelatedOracle(t, net, RelatedOptions{Iter: sparse.IterOptions{Tol: 1e-14, MaxIter: 2000, AitkenEvery: relatedAitkenEvery}})
		in := net.Citations.InDegrees()
		degree := func(i int) int { return in[i] + net.Citations.OutDegree(graph.NodeID(i)) }
		leaf, hub := int32(-1), int32(0)
		for i := 0; i < n; i++ {
			if degree(i) == 1 && leaf < 0 {
				leaf = int32(i)
			}
			if degree(i) > degree(int(hub)) {
				hub = int32(i)
			}
		}
		if leaf < 0 {
			t.Fatalf("corpus %d has no article of degree 1", cseed)
		}
		isolated := int32(n - 1)
		for _, seed := range []int32{0, 7, reciprocal, leaf, hub, isolated} {
			lists := map[int][]int{}
			for _, k := range []int{1, 10, 20} {
				got, st, err := ri.RelatedStats(context.Background(), seed, k)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Converged {
					t.Fatalf("corpus %d seed %d k=%d: walk stopped at the iteration cap", cseed, seed, k)
				}
				if seed == isolated && len(got) != 0 {
					t.Errorf("corpus %d: isolated seed returned %v", cseed, got)
				}
				if !st.Certified {
					if st.Residual >= sparse.DefaultTol {
						t.Errorf("corpus %d seed %d k=%d: uncertified walk stopped at residual %g", cseed, seed, k, st.Residual)
					}
					continue
				}
				certified++
				lists[k] = got
				if want := exact.related(t, seed, k); !slices.Equal(got, want) {
					t.Errorf("corpus %d seed %d k=%d: certified %v after %d sweeps, exact walk %v", cseed, seed, k, got, st.Iterations, want)
				}
			}
			if top10, top20 := lists[10], lists[20]; top10 != nil && top20 != nil && !slices.Equal(top10, top20[:10]) {
				t.Errorf("corpus %d seed %d: certified top 10 %v is not the prefix of the certified top 20 %v", cseed, seed, top10, top20)
			}
		}
	}
	if certified == 0 {
		t.Error("no walk was stopped by its certificate")
	}
}

// TestRelatedCertificateSavesSweeps guards the gain: on the 20k
// generated benchmark fixture, walks for the top 10 take at most three
// quarters of the sweeps the same walks take to Tol.
func TestRelatedCertificateSavesSweeps(t *testing.T) {
	net := benchNetwork(t)
	ri, err := NewRelatedIndex(net, RelatedOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := new(relatedScratch)
	var certified, full int
	for _, seed := range []int32{3, 1000, 5000, 9999, 15000, 19999} {
		_, st, err := ri.RelatedStats(context.Background(), seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Certified {
			t.Errorf("seed %d: the top-10 walk was not certified (%d sweeps)", seed, st.Iterations)
		}
		_, fst, err := ri.walk(context.Background(), seed, 0, sc)
		if err != nil {
			t.Fatal(err)
		}
		certified += st.Iterations
		full += fst.Iterations
	}
	t.Logf("certified top-10 walks: %d sweeps; the same walks to Tol: %d", certified, full)
	if 4*certified > 3*full {
		t.Errorf("certified walks took %d sweeps, more than 0.75 × the %d the walks to Tol took", certified, full)
	}
}

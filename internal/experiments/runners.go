package experiments

// The tables that are not cells × methods × metrics, written out as
// code: corpus statistics (T1), scalability and worker scaling (T4,
// F6), entity ranking (T6), convergence traces (F3) and the solver
// comparison (F7).

import (
	"fmt"
	"math/rand"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/eval"
	"scholarrank/internal/graph"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
)

// runCorpusStats reproduces the dataset-description table: size,
// citation volume, density and heavy-tail diagnostics for each corpus
// the suite evaluates on.
func runCorpusStats(opts Options) ([]*Table, error) {
	t := &Table{ID: "T1", Title: "Corpus statistics", Columns: []string{
		"corpus", "articles", "citations", "authors", "venues",
		"mean-in", "max-in", "gini-in", "alpha", "dangling",
	}, Notes: []string{
		"synthetic corpora standing in for AMiner/MAG (see DESIGN.md substitutions)",
		"alpha: MLE power-law exponent of the in-degree tail (real citation data: ~2-3)",
	}}
	for _, size := range []string{SizeSmall, sizeMedium, sizeLarge} {
		c, err := BuildCorpus(size, opts)
		if err != nil {
			return nil, err
		}
		st := graph.ComputeStats(c.Store.CitationGraph())
		t.AddRow(size, st.Nodes, st.Edges, c.Store.NumAuthors(), c.Store.NumVenues(),
			st.MeanInDegree, st.MaxInDegree, st.GiniInDegree, st.PowerAlpha, st.Dangling)
	}
	return []*Table{t}, nil
}

// timedRank is one default QISA-Rank solve at the given worker count
// and its wall time.
func timedRank(net *hetnet.Network, workers int) (*core.Scores, time.Duration, error) {
	o := core.DefaultOptions()
	o.Workers = workers
	start := time.Now()
	sc, err := core.Rank(net, o)
	return sc, time.Since(start), err
}

// runScalability measures full QISA-Rank wall time, stage iteration
// counts and edge throughput as the corpus grows. The expected shape:
// time linear in citations, iteration count flat (set by damping and
// tolerance, not size).
func runScalability(opts Options) ([]*Table, error) {
	t := &Table{ID: "T4", Title: "QISA-Rank scalability",
		Columns: []string{"articles", "citations", "wall-ms", "prestige-iters", "hetero-iters", "edges/s"},
		Notes:   []string{"wall time excludes corpus generation; single run per size"}}
	sizes := []int{25_000, 50_000, 100_000, 200_000}
	if opts.Quick {
		sizes = []int{1_000, 2_000, 4_000, 8_000}
	}
	for _, n := range sizes {
		c, err := buildCorpusN(n, opts)
		if err != nil {
			return nil, err
		}
		net := hetnet.Build(c.Store)
		sc, elapsed, err := timedRank(net, opts.Workers)
		if err != nil {
			return nil, err
		}
		edges := net.Citations.NumEdges()
		iters := sc.PrestigeStats.Iterations + sc.HeteroStats.Iterations
		eps := float64(edges*iters) / elapsed.Seconds()
		t.AddRow(n, edges, float64(elapsed.Milliseconds()),
			sc.PrestigeStats.Iterations, sc.HeteroStats.Iterations, eps)
	}
	return []*Table{t}, nil
}

// runParallel measures prestige-stage wall time across worker counts
// on the largest preset. On a single-core host the curve is expected
// to be flat (documented in EXPERIMENTS.md); on multi-core hosts it
// shows the mat-vec scaling.
func runParallel(opts Options) ([]*Table, error) {
	size := sizeLarge
	if opts.Quick {
		size = SizeSmall
	}
	c, err := BuildCorpus(size, opts)
	if err != nil {
		return nil, err
	}
	net := hetnet.Build(c.Store)
	t := &Table{ID: "F6", Title: "QISA-Rank wall time vs workers (" + size + " corpus)",
		Columns: []string{"workers", "wall-ms", "speedup"},
		Notes:   []string{"speedup relative to 1 worker; flat on single-core hosts"}}
	var base float64
	for _, w := range []int{1, 2, 4, 8} {
		_, elapsed, err := timedRank(net, w)
		if err != nil {
			return nil, err
		}
		ms := float64(elapsed.Milliseconds())
		if w == 1 {
			base = ms
		}
		speedup := 0.0
		if ms > 0 {
			speedup = base / ms
		}
		t.AddRow(w, ms, speedup)
	}
	return []*Table{t}, nil
}

// entityMinArticles restricts the author evaluation to authors with
// at least this many articles: talent is statistically invisible in a
// one-article sample, and real evaluations (h-index studies, award
// committees) likewise consider productive authors only.
const entityMinArticles = 5

// runEntities evaluates the derived author and venue rankings against
// the generator's planted ground truth (author talent and venue
// prestige) — an oracle comparison impossible on real data, and the
// extension-level result the paper family reports for ranking
// entities other than articles.
func runEntities(opts Options) ([]*Table, error) {
	c, err := BuildCorpus(sizeMedium, opts)
	if err != nil {
		return nil, err
	}
	net := hetnet.Build(c.Store)
	eng := core.NewEngine(net)
	o := evalOptions(opts.Workers)
	sc, err := eng.Rank(o)
	if err != nil {
		return nil, err
	}
	cc, err := eng.RankScorer(core.ScorerCiteCount, nil, o)
	if err != nil {
		return nil, err
	}
	// CoRank produces author scores directly from the coupled walk,
	// without an aggregation step — the mutual-reinforcement
	// comparison point.
	cr, err := eng.RankScorer(core.ScorerCoRank, nil, o)
	if err != nil {
		return nil, fmt.Errorf("experiments: entities corank: %w", err)
	}
	// Authors are evaluated over the productive subset only (see
	// entityMinArticles): talent cannot be recovered from one-article
	// samples on any method.
	productive := make([]int, 0, net.NumAuthors())
	for a := 0; a < net.NumAuthors(); a++ {
		if len(net.AuthorArticles(int32(a))) >= entityMinArticles {
			productive = append(productive, a)
		}
	}
	filterAuthors := func(xs []float64) []float64 {
		out := make([]float64, len(productive))
		for i, a := range productive {
			out[i] = xs[a]
		}
		return out
	}
	t := &Table{ID: "T6", Title: "Entity ranking accuracy vs planted talent/prestige (medium corpus)",
		Columns: []string{"entities", "article-signal", "aggregate", "pairwise-acc", "spearman"}, Notes: []string{
			"ground truth: the generator's latent author talent and venue prestige",
			"shrunk-mean: entity mean pulled toward the global mean by 3 pseudo-articles",
			fmt.Sprintf("author rows restricted to the %d authors with >= %d articles", len(productive), entityMinArticles),
		}}
	addRow := func(entities, signal, agg string, scores, truth []float64) error {
		rng := rand.New(rand.NewSource(6000 + opts.Seed))
		acc, _, err := eval.PairwiseAccuracy(scores, truth, rng, pairSamples)
		if err != nil {
			return err
		}
		rho, err := eval.Spearman(scores, truth)
		if err != nil {
			return err
		}
		t.AddRow(entities, signal, agg, acc, rho)
		return nil
	}
	if err := addRow("authors", "CoRank", "direct", filterAuthors(cr.Authors), filterAuthors(c.AuthorTalent)); err != nil {
		return nil, err
	}
	kinds := []struct {
		name   string
		rank   func(*hetnet.Network, []float64, rank.EntityRankOptions) ([]float64, error)
		truth  []float64
		filter func([]float64) []float64
	}{
		{"authors", rank.AuthorRank, c.AuthorTalent, filterAuthors},
		{"venues", rank.VenueRank, c.VenuePrestige, func(xs []float64) []float64 { return xs }},
	}
	signals := []struct {
		name   string
		scores []float64
	}{{"QISA-Rank", sc.Importance}, {"CiteCount", cc.Importance}}
	for _, k := range kinds {
		for _, sig := range signals {
			for _, agg := range []rank.EntityAggregate{rank.AggSum, rank.AggMean, rank.AggShrunkMean} {
				scores, err := k.rank(net, sig.scores, rank.EntityRankOptions{Aggregate: agg})
				if err != nil {
					return nil, fmt.Errorf("experiments: entities %s/%s: %w", k.name, agg, err)
				}
				if err := addRow(k.name, sig.name, agg.String(), k.filter(scores), k.filter(k.truth)); err != nil {
					return nil, err
				}
			}
		}
	}
	return []*Table{t}, nil
}

// convergenceIters is how many leading iterations the figure reports.
const convergenceIters = 25

// runConvergence traces the L1 residual of every iterative method on
// the medium corpus. Expected shape: the Gauss–Seidel walks (PageRank,
// CiteRank) solve the chronological citation graph in a couple of
// sweeps; P-Rank's citation term sweeps the same way but its author
// and venue layers are Jacobi, so it decays geometrically like the
// Jacobi iterations (FutureRank); HITS decays at the spectral gap of
// the citation graph (typically slower and less regular).
func runConvergence(opts Options, c *cell) ([]*Table, error) {
	o := evalOptions(opts.Workers)
	o.Iter = sparse.IterOptions{Tol: 1e-14, MaxIter: convergenceIters, Trace: true}
	runs := pick("PageRank", "HITS", "CiteRank", "FutureRank", "P-Rank")

	t := &Table{ID: "F3", Title: "L1 residual by iteration (medium corpus)", Columns: []string{"iteration"}, Notes: []string{
		"Gauss–Seidel walks converge in a few sweeps; Jacobi iterations decay geometrically at ≈ the damping factor (0.85)",
	}}
	traces := make([][]float64, 0, len(runs))
	for _, m := range runs {
		sc, err := core.RankScorer(c.net, m.scorer, nil, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: convergence %s: %w", m.label, err)
		}
		t.Columns = append(t.Columns, m.label)
		traces = append(traces, sc.PrestigeStats.ResidualTrace)
	}
	for i := 0; i < convergenceIters; i++ {
		row := []any{i + 1}
		for _, tr := range traces {
			if i < len(tr) {
				row = append(row, fmt.Sprintf("%.3e", tr[i]))
			} else {
				row = append(row, "converged")
			}
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// runSolver compares the two PageRank solvers at several tolerances —
// the ablation behind DESIGN.md §9's chronological Gauss–Seidel
// sweep. The power-iteration side is the Jacobi walk over a fresh
// citation operator; the Gauss–Seidel side is the pagerank scorer,
// which walks the network's own. Expected shape: identical rankings
// (Kendall tau ≈ 1), and Gauss–Seidel in about two sweeps at every
// tolerance on the generated corpus, whose citations all point to
// lower ids.
func runSolver(opts Options) ([]*Table, error) {
	c, err := BuildCorpus(sizeMedium, opts)
	if err != nil {
		return nil, err
	}
	net := hetnet.Build(c.Store)
	view := net.SolverView()
	jacobi := sparse.NewTransition(view.Citations, nil) // Jacobi sweeps
	uniform := make([]float64, jacobi.N())
	sparse.Uniform(uniform)
	t := &Table{ID: "F7", Title: "PageRank solver comparison (medium corpus)",
		Columns: []string{"tolerance", "power-iters", "power-ms", "gs-iters", "gs-ms", "kendall-tau"},
		Notes:   []string{"Gauss-Seidel sweeps newest-to-oldest, exploiting the chronological article ids"}}
	for _, tol := range []float64{1e-6, 1e-9, 1e-12} {
		o := evalOptions(opts.Workers)
		o.Iter = sparse.IterOptions{Tol: tol, MaxIter: 1000}
		startP := time.Now()
		power, powerStats, err := sparse.DampedWalk(jacobi, rank.DefaultDamping, uniform, o.Iter)
		if err != nil {
			return nil, fmt.Errorf("experiments: solver power: %w", err)
		}
		powerMs := float64(time.Since(startP).Milliseconds())
		startG := time.Now()
		gs, err := core.RankScorer(net, core.ScorerPageRank, nil, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: solver gs: %w", err)
		}
		gsMs := float64(time.Since(startG).Milliseconds())
		tau, err := eval.KendallTau(view.Perm().Restored(power), gs.Importance)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0e", tol), powerStats.Iterations, powerMs,
			gs.PrestigeStats.Iterations, gsMs, tau)
	}
	return []*Table{t}, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/eval"
	"scholarrank/internal/experiments"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
)

// scorerResult is one leaderboard row, JSON-shaped for the BENCH
// artifact.
type scorerResult struct {
	Name       string  `json:"name"`
	Seconds    float64 `json:"seconds"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`

	scores []float64
}

// pairResult compares two scorers' rankings: full-list rank
// correlations plus the fraction of the top K they share.
type pairResult struct {
	A        string  `json:"a"`
	B        string  `json:"b"`
	Kendall  float64 `json:"kendall_tau"`
	Spearman float64 `json:"spearman_rho"`
	Overlap  float64 `json:"top_k_overlap"`
}

// leaderboardReport is the -json artifact envelope.
type leaderboardReport struct {
	Corpus   string         `json:"corpus"`
	Articles int            `json:"articles"`
	Workers  int            `json:"workers"`
	TopK     int            `json:"top_k"`
	Scorers  []scorerResult `json:"scorers"`
	Pairwise []pairResult   `json:"pairwise"`
}

// runLeaderboard ranks one synthetic corpus with every registered
// scorer on a shared engine (warm caches are scorer-namespaced, so
// sharing is fair) and renders a per-scorer cost table plus the
// pairwise agreement matrix: Kendall τ-b and Spearman ρ over the full
// ranking, and top-K overlap where ranking products are actually
// consumed.
func runLeaderboard(stdout io.Writer, opts experiments.Options, topK int, jsonPath, csvDir string) error {
	start := time.Now()
	c, err := experiments.BuildCorpus(experiments.SizeSmall, opts)
	if err != nil {
		return err
	}
	n := c.Store.NumArticles()
	if topK > n {
		topK = n
	}
	net := hetnet.Build(c.Store)
	eng := core.NewEngine(net)
	ropts := core.DefaultOptions()
	ropts.Workers = opts.Workers
	ropts.Iter = experiments.EvalIter

	var results []scorerResult
	var poolWorkers int
	for _, name := range core.ScorerNames() {
		solveStart := time.Now()
		sc, err := eng.RankScorer(name, nil, ropts)
		if err != nil {
			return fmt.Errorf("leaderboard: %s: %w", name, err)
		}
		poolWorkers = sc.Pool.Workers
		iters := sc.PrestigeStats.Iterations + sc.HeteroStats.Iterations
		conv := true
		if sc.PrestigeStats.Iterations > 0 {
			conv = conv && sc.PrestigeStats.Converged
		}
		if sc.HeteroStats.Iterations > 0 {
			conv = conv && sc.HeteroStats.Converged
		}
		results = append(results, scorerResult{
			Name: name, Seconds: time.Since(solveStart).Seconds(),
			Iterations: iters, Converged: conv, scores: sc.Importance,
		})
	}

	pairs, err := pairwise(results, topK)
	if err != nil {
		return err
	}

	cost := &experiments.Table{
		ID:      "L1",
		Title:   "scorer leaderboard (one corpus, shared engine, equal iteration budget)",
		Columns: []string{"scorer", "solve_s", "iterations", "converged"},
		Notes: []string{
			fmt.Sprintf("synthetic %s corpus, %d articles, %d workers, tol %.0e cap %d iterations",
				experiments.SizeSmall, n, poolWorkers, experiments.EvalIter.Tol, experiments.EvalIter.MaxIter),
		},
	}
	for _, r := range results {
		cost.AddRow(r.Name, r.Seconds, r.Iterations, fmt.Sprintf("%v", r.Converged))
	}
	agree := &experiments.Table{
		ID:      "L2",
		Title:   fmt.Sprintf("pairwise ranking agreement (overlap@%d)", topK),
		Columns: []string{"a", "b", "kendall_tau", "spearman_rho", fmt.Sprintf("overlap@%d", topK)},
		Notes: []string{
			"full-list rank correlations; overlap is the shared fraction of the two top-K sets",
		},
	}
	for _, p := range pairs {
		agree.AddRow(p.A, p.B, p.Kendall, p.Spearman, p.Overlap)
	}
	for _, t := range []*experiments.Table{cost, agree} {
		fmt.Fprintln(stdout)
		if err := t.Render(stdout); err != nil {
			return err
		}
		if csvDir != "" {
			if err := writeCSV(csvDir, t); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(stdout, "(leaderboard finished in %v: %d scorers)\n",
		time.Since(start).Round(time.Millisecond), len(results))

	if jsonPath == "" {
		return nil
	}
	report := leaderboardReport{
		Corpus: experiments.SizeSmall, Articles: n, Workers: poolWorkers,
		TopK: topK, Scorers: results, Pairwise: pairs,
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	encoder := json.NewEncoder(f)
	encoder.SetIndent("", "  ")
	if err := encoder.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pairwise computes the agreement metrics for every unordered scorer
// pair, in registry order.
func pairwise(results []scorerResult, topK int) ([]pairResult, error) {
	var pairs []pairResult
	for i := 0; i < len(results); i++ {
		for j := i + 1; j < len(results); j++ {
			a, b := results[i], results[j]
			tau, err := eval.KendallTau(a.scores, b.scores)
			if err != nil {
				return nil, fmt.Errorf("leaderboard: %s vs %s: %w", a.Name, b.Name, err)
			}
			rho, err := eval.Spearman(a.scores, b.scores)
			if err != nil {
				return nil, fmt.Errorf("leaderboard: %s vs %s: %w", a.Name, b.Name, err)
			}
			pairs = append(pairs, pairResult{
				A: a.Name, B: b.Name, Kendall: tau, Spearman: rho,
				Overlap: topOverlap(a.scores, b.scores, topK),
			})
		}
	}
	return pairs, nil
}

// topOverlap is |topK(a) ∩ topK(b)| / k.
func topOverlap(a, b []float64, k int) float64 {
	if k == 0 {
		return 1
	}
	inA := make(map[int]bool, k)
	for _, i := range rank.TopK(a, k) {
		inA[i] = true
	}
	shared := 0
	for _, i := range rank.TopK(b, k) {
		if inA[i] {
			shared++
		}
	}
	return float64(shared) / float64(k)
}

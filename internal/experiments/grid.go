package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/eval"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// The evaluation grid (DESIGN.md §3). Every effectiveness table asks
// one question: rank some cells with some methods, then score each
// ranking with some metrics. A table declares those three lists;
// byMethod and byFraction run the loop.

// EvalIter is the iteration budget every compared method gets — in the
// experiment suite and on the sareval leaderboard — so no algorithm
// wins by running longer.
var EvalIter = sparse.IterOptions{Tol: 1e-10, MaxIter: 300}

// evalOptions is the default QISA-Rank parameterisation under the
// shared evaluation budget.
func evalOptions(workers int) core.Options {
	o := core.DefaultOptions()
	o.Workers = workers
	o.Iter = EvalIter
	return o
}

// pairSamples is the pairwise-accuracy sampling budget per ranking.
const pairSamples = 200_000

// Corpus presets. Quick mode shrinks each preset ~25x so tests and
// smoke runs stay fast; full sizes match DESIGN.md §3.
const (
	SizeSmall  = "small"
	sizeMedium = "medium"
	sizeLarge  = "large"
)

func presetArticles(size string, quick bool) (int, error) {
	full := map[string]int{SizeSmall: 20_000, sizeMedium: 100_000, sizeLarge: 300_000}
	n, ok := full[size]
	if !ok {
		return 0, fmt.Errorf("experiments: unknown corpus size %q", size)
	}
	if quick {
		n /= 25
	}
	return n, nil
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[gen.Config]*gen.Corpus{}
)

// BuildCorpus generates (or returns the cached) corpus for a preset.
// Caching matters because several experiments share the medium
// corpus; the cache key is the full generator config, so quick and
// full runs never collide.
func BuildCorpus(size string, opts Options) (*gen.Corpus, error) {
	n, err := presetArticles(size, opts.Quick)
	if err != nil {
		return nil, err
	}
	return buildCorpusN(n, opts)
}

// buildCorpusN generates (or returns the cached) corpus with exactly
// n articles, for the scalability sweeps.
func buildCorpusN(n int, opts Options) (*gen.Corpus, error) {
	cfg := gen.NewDefaultConfig(n)
	cfg.Seed += opts.Seed
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if c, ok := corpusCache[cfg]; ok {
		return c, nil
	}
	c, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	corpusCache[cfg] = c
	return c, nil
}

// cell is one visible network to rank plus its ground truths on the
// network's ids.
type cell struct {
	label   string
	net     *hetnet.Network
	h       *gen.Holdout // the split the cell was cut from
	future  []float64    // citations arriving after the cutoff (impact ground truth)
	quality []float64    // latent quality (oracle ground truth)
	workers int
	eng     *core.Engine // shared by the cell's variants, so each warm-starts from the one before
}

// holdoutCell is a corpus's holdout: rank on the first 80% of the
// timeline, score on what arrives after — the split every
// effectiveness experiment uses.
func holdoutCell(label string, corp *gen.Corpus, opts Options) (*cell, error) {
	minY, maxY := corp.Store.YearRange()
	h, err := gen.SplitByYear(corp.Store, minY+(maxY-minY)*8/10)
	if err != nil {
		return nil, err
	}
	return &cell{label: label, net: hetnet.Build(h.Train), h: h, future: h.FutureCites,
		quality: h.MapToTrain(corp.Quality), workers: opts.Workers}, nil
}

// preset is a preset corpus's holdout cell.
func preset(size string, opts Options) (*cell, error) {
	corp, err := BuildCorpus(size, opts)
	if err != nil {
		return nil, err
	}
	return holdoutCell(size, corp, opts)
}

// method is one way to rank a cell: a table label and the ranking;
// scorer names the registered scorer behind it, if one is.
type method struct {
	label  string
	scores func(c *cell) ([]float64, error)
	scorer string
}

// scorer ranks with a registered scorer under the shared budget.
func scorer(label, name string) method {
	return method{label: label, scorer: name, scores: func(c *cell) ([]float64, error) {
		sc, err := core.RankScorer(c.net, name, nil, evalOptions(c.workers))
		if err != nil {
			return nil, err
		}
		return sc.Importance, nil
	}}
}

// variant ranks with QISA-Rank under patched options on the cell's
// engine, so a sweep reuses the cached substrate.
func variant(label string, patch func(*core.Options)) method {
	return method{label: label, scores: func(c *cell) ([]float64, error) {
		if c.eng == nil {
			c.eng = core.NewEngine(c.net)
		}
		o := evalOptions(c.workers)
		patch(&o)
		sc, err := c.eng.Rank(o)
		if err != nil {
			return nil, err
		}
		return sc.Importance, nil
	}}
}

// sweep is one QISA-Rank variant per value of one option.
func sweep(xs []float64, set func(o *core.Options, x float64)) []method {
	ms := make([]method, len(xs))
	for i, x := range xs {
		ms[i] = variant(formatFloat(x), func(o *core.Options) { set(o, x) })
	}
	return ms
}

const qisaMethodName = "QISA-Rank"

// methods is every compared algorithm in presentation order:
// count-based baselines, flat link analysis, time-aware link analysis,
// heterogeneous baselines, then QISA-Rank.
var methods = []method{
	scorer("CiteCount", core.ScorerCiteCount),
	scorer("YearNorm", core.ScorerYearNorm),
	scorer("AgeNorm", core.ScorerAgeNorm),
	scorer("PageRank", core.ScorerPageRank),
	scorer("HITS", core.ScorerHITS),
	scorer("SceasRank", core.ScorerSCEAS),
	scorer("TimedPR", core.ScorerTimedPR),
	scorer("CiteRank", core.ScorerCiteRank),
	scorer("FutureRank", core.ScorerFutureRank),
	scorer("CoRank", core.ScorerCoRank),
	scorer("P-Rank", core.ScorerPRank),
	scorer("EWPR", core.ScorerEWPR),
	scorer(qisaMethodName, core.DefaultScorer),
}

// pick returns the named methods in the order given.
func pick(labels ...string) []method {
	var out []method
	for _, l := range labels {
		for _, m := range methods {
			if m.label == l {
				out = append(out, m)
			}
		}
	}
	return out
}

// metric scores one ranking of a cell: its column names and one value
// per column. label names the method, for a metric that compares the
// ranking with that method's own reference (F5b).
type metric struct {
	cols []string
	eval func(c *cell, label string, scores []float64) ([]any, error)
}

func futureCites(c *cell) []float64   { return c.future }
func latentQuality(c *cell) []float64 { return c.quality }

// accuracy is sampled pairwise ordering accuracy against each truth in
// turn, all drawn from one rng seeded afresh for every ranking.
func accuracy(seed int64, cols []string, truths ...func(*cell) []float64) metric {
	return metric{cols, func(c *cell, _ string, scores []float64) ([]any, error) {
		rng := rand.New(rand.NewSource(seed))
		out := make([]any, len(truths))
		for i, truth := range truths {
			acc, _, err := eval.PairwiseAccuracy(scores, truth(c), rng, pairSamples)
			if err != nil {
				return nil, err
			}
			out[i] = acc
		}
		return out, nil
	}}
}

// futureAcc is accuracy against future citations alone.
func futureAcc(seed int64) metric { return accuracy(seed, []string{"acc-future"}, futureCites) }

// ndcg50 is NDCG@50 against future citations.
func ndcg50(col string) metric {
	return metric{[]string{col}, func(c *cell, _ string, scores []float64) ([]any, error) {
		v, err := eval.NDCG(scores, c.future, 50)
		return []any{v}, err
	}}
}

// score ranks c with m and scores the ranking with each metric.
func score(c *cell, m method, metrics []metric) ([][]any, error) {
	s, err := m.scores(c)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", m.label, c.label, err)
	}
	vals := make([][]any, len(metrics))
	for i, mt := range metrics {
		if vals[i], err = mt.eval(c, m.label, s); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// byMethod fills t with a row per method: its label, then each cell's
// metric columns, named "cell:col" when there are several cells.
func byMethod(t *Table, cells []*cell, ms []method, metrics ...metric) ([]*Table, error) {
	for _, c := range cells {
		for _, mt := range metrics {
			for _, col := range mt.cols {
				if len(cells) > 1 {
					col = c.label + ":" + col
				}
				t.Columns = append(t.Columns, col)
			}
		}
	}
	for _, m := range ms {
		row := []any{m.label}
		for _, c := range cells {
			vals, err := score(c, m, metrics)
			if err != nil {
				return nil, err
			}
			row = append(row, slices.Concat(vals...)...)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// byFraction fills tables with a row per fraction — its value, then one
// column per method — table i taking metric i, which has one column.
// The row's cell is full
// with its visible store passed through transform at that fraction,
// under an rng seeded seed + frac·100; the ground truth stays full's.
func byFraction(full *cell, tables []*Table, fracs []float64, seed int64,
	transform func(s *corpus.Store, frac float64, rng *rand.Rand) (*corpus.Store, error), metrics ...metric) ([]*Table, error) {
	for _, t := range tables {
		for _, m := range methods {
			t.Columns = append(t.Columns, m.label)
		}
	}
	for _, frac := range fracs {
		s, err := transform(full.h.Train, frac, rand.New(rand.NewSource(seed+int64(frac*100))))
		if err != nil {
			return nil, err
		}
		c := &cell{label: formatFloat(frac), net: hetnet.Build(s), future: full.future, workers: full.workers}
		rows := make([][]any, len(tables))
		for i := range rows {
			rows[i] = []any{c.label}
		}
		for _, m := range methods {
			vals, err := score(c, m, metrics)
			if err != nil {
				return nil, err
			}
			for i, v := range vals {
				rows[i] = append(rows[i], v...)
			}
		}
		for i, t := range tables {
			t.AddRow(rows[i]...)
		}
	}
	return tables, nil
}

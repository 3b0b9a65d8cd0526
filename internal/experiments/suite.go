package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/eval"
	"scholarrank/internal/gen"
	"scholarrank/internal/rank"
	"scholarrank/internal/retrieval"
)

// ErrUnknownExperiment reports a lookup of an unregistered id.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// Options tunes a run of the suite.
type Options struct {
	// Quick shrinks every corpus so the whole suite finishes in
	// seconds — used by tests and smoke runs. Full-size corpora
	// reproduce the recorded EXPERIMENTS.md numbers.
	Quick bool
	// Workers sets mat-vec parallelism for all algorithms.
	Workers int
	// Seed offsets every generator seed, for variance studies.
	Seed int64
}

// Experiment is one table/figure reproduction of the suite.
type Experiment struct {
	ID    string
	Title string
	Run   func(opts Options) ([]*Table, error)
}

// suite is every experiment, tables first then figures, each in
// numeric order. T1, T4, T6, F3, F6 and F7 are written out as code:
// they are not cells × methods × metrics. The rest are declarations
// over the evaluation grid (grid.go).
var suite = []Experiment{
	{"T1", "Corpus statistics", runCorpusStats},
	{"T2", "Overall effectiveness vs future-citation ground truth", runEffectiveness},
	{"T3", "Recall of high-quality (award) articles", onMedium(runAwardRecall)},
	{"T4", "Scalability with corpus size", runScalability},
	{"T5", "QISA-Rank ablation", onMedium(runAblation)},
	{"T6", "Author and venue ranking vs latent oracle", runEntities},
	{"T7", "Retrieval blending: query relevance + importance prior", onMedium(runRetrieval)},
	{"T8", "Variance across corpus seeds", runVariance},
	{"F1", "Accuracy vs time-decay rate", onMedium(runDecaySweep)},
	{"F2", "Accuracy vs ensemble mixing", onMedium(runEnsembleSweep)},
	{"F3", "Convergence of the iterative methods", onMedium(runConvergence)},
	{"F4", "Cold start: rank percentile of high-impact articles by age", onMedium(runColdStart)},
	{"F5", "Robustness to citation sparsity", onMedium(runSparsity)},
	{"F6", "Throughput vs worker count", runParallel},
	{"F7", "Solver ablation: power iteration vs Gauss-Seidel", runSolver},
	{"F8", "Robustness to publication-year metadata noise", onMedium(runNoise)},
	{"F9", "Field-normalisation on a multi-field corpus", runFields},
}

// All returns every experiment, tables first then figures, each in
// numeric order.
func All() []Experiment { return append([]Experiment(nil), suite...) }

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range suite {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
}

// onMedium runs a table on the medium preset's holdout cell.
func onMedium(run func(opts Options, c *cell) ([]*Table, error)) func(Options) ([]*Table, error) {
	return func(opts Options) ([]*Table, error) {
		c, err := preset(sizeMedium, opts)
		if err != nil {
			return nil, err
		}
		return run(opts, c)
	}
}

// runEffectiveness (T2) is the headline comparison: every method's
// pairwise ordering accuracy and NDCG@50 against future citations,
// on the small and medium holdouts.
func runEffectiveness(opts Options) ([]*Table, error) {
	small, err := preset(SizeSmall, opts)
	if err != nil {
		return nil, err
	}
	medium, err := preset(sizeMedium, opts)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "T2", Title: "Effectiveness vs future citations (pairwise accuracy / NDCG@50)",
		Columns: []string{"method"}, Notes: []string{
			fmt.Sprintf("accuracy: sampled pairwise ordering agreement (%d pairs) with future-citation counts", pairSamples),
			"holdout: rank on the first 80% of the timeline, score on citations arriving after",
		}}
	return byMethod(t, []*cell{small, medium}, methods,
		accuracy(1000+opts.Seed, []string{"acc"}, futureCites), ndcg50("ndcg@50"))
}

// runAwardRecall (T3) is the expert-ground-truth table: how much of
// the top-quality "award set" each method surfaces in its top k. The
// award set is the top 0.5% of train articles by latent quality — the
// oracle standing in for best-paper and test-of-time lists.
func runAwardRecall(_ Options, c *cell) ([]*Table, error) {
	awardSize := max(c.net.NumArticles()/200, 10) // 0.5%
	award := make(map[int]bool, awardSize)
	for _, i := range rank.TopK(c.quality, awardSize) {
		award[i] = true
	}
	recall := metric{[]string{"recall@10", "recall@50", "recall@100", "avg-precision"},
		func(_ *cell, _ string, s []float64) ([]any, error) {
			return []any{eval.RecallAtK(s, award, 10), eval.RecallAtK(s, award, 50),
				eval.RecallAtK(s, award, 100), eval.AveragePrecision(s, award)}, nil
		}}
	t := &Table{ID: "T3", Title: fmt.Sprintf("Recall@k of the %d highest-quality articles (medium corpus)", awardSize),
		Columns: []string{"method"},
		Notes:   []string{"award set: top 0.5% by latent quality — the oracle for best-paper/test-of-time lists"}}
	return byMethod(t, []*cell{c}, methods, recall)
}

// ablationVariants removes each design choice of QISA-Rank in turn.
func ablationVariants() []method {
	only := func(p, q, h float64) func(*core.Options) {
		return func(o *core.Options) {
			o.Ensemble = core.Arithmetic
			o.WPrestige, o.WPopularity, o.WHetero = p, q, h
		}
	}
	return []method{
		variant("full", func(*core.Options) {}),
		variant("prestige-only", only(1, 0, 0)),
		variant("popularity-only", only(0, 1, 0)),
		variant("hetero-only", only(0, 0, 1)),
		variant("no-time-decay", func(o *core.Options) { o.DisableTimeDecay = true }),
		variant("no-prestige-fade", func(o *core.Options) { o.RhoFade = 0 }),
		variant("no-author-layer", func(o *core.Options) { o.DisableAuthors = true }),
		variant("no-venue-layer", func(o *core.Options) { o.DisableVenues = true }),
		variant("arithmetic-ensemble", func(o *core.Options) { o.Ensemble = core.Arithmetic }),
		variant("harmonic-ensemble", func(o *core.Options) { o.Ensemble = core.Harmonic }),
		variant("minmax-normalization", func(o *core.Options) { o.Normalization = core.NormMinMax }),
	}
}

// runAblation (T5) measures the damage of each ablation against both
// ground truths on the medium holdout.
func runAblation(opts Options, c *cell) ([]*Table, error) {
	t := &Table{ID: "T5", Title: "QISA-Rank ablation (medium corpus)", Columns: []string{"variant"},
		Notes: []string{"acc-future: pairwise accuracy vs future citations; acc-quality: vs latent quality oracle"}}
	return byMethod(t, []*cell{c}, ablationVariants(),
		accuracy(2000+opts.Seed, []string{"acc-future", "acc-quality"}, futureCites, latentQuality),
		ndcg50("ndcg@50-future"))
}

// runRetrieval (T7) is the downstream-search evaluation of
// query-independent evidence: blend each method's importance scores
// with a noisy per-query relevance signal and measure mean NDCG@10
// against graded relevance. Expected shape: every reasonable prior
// improves over pure relevance at some interior lambda; the better the
// ranking method, the larger the gain.
func runRetrieval(opts Options, c *cell) ([]*Table, error) {
	wopts := retrieval.DefaultWorkloadOptions()
	wopts.Seed = 8000 + opts.Seed
	if opts.Quick {
		wopts.Queries = 40
	}
	// Gains are the articles' future citations: the searcher wants
	// the topical papers the community is about to build on.
	queries, err := retrieval.BuildWorkload(c.net, c.future, wopts)
	if err != nil {
		return nil, err
	}
	blend := metric{[]string{"pure-relevance", "best-lambda", "ndcg@best", "gain%"},
		func(_ *cell, _ string, s []float64) ([]any, error) {
			// The sweep is sorted by lambda and ends at lambda = 1, pure
			// relevance.
			best, points, err := retrieval.BestLambda(queries, s, 10)
			if err != nil {
				return nil, err
			}
			pure, bestNDCG := points[len(points)-1].NDCG, 0.0
			for _, p := range points {
				bestNDCG = max(bestNDCG, p.NDCG)
			}
			gain := 0.0
			if pure > 0 {
				gain = (bestNDCG - pure) / pure * 100
			}
			return []any{pure, best, bestNDCG, gain}, nil
		}}
	t := &Table{ID: "T7", Title: "Mean NDCG@10 of blended retrieval (medium corpus)",
		Columns: []string{"method"}, Notes: []string{
			"blend: lambda·relevance + (1-lambda)·importance, both rank-percentile scaled per query",
			"relevance: noisy topical signal; gains: future citations of the relevant articles",
		}}
	return byMethod(t, []*cell{c}, methods, blend)
}

// varianceSeeds is how many independently generated corpora the
// variance study averages over.
const varianceSeeds = 5

// varianceMethods are the methods whose stability T8 reports: the
// deployed-everywhere baseline, the strongest baseline and the core
// algorithm.
var varianceMethods = pick("CiteCount", "CiteRank", qisaMethodName)

// runVariance (T8) re-generates the medium corpus under several seeds
// and reports the spread of each method's pairwise accuracy: mean,
// sample standard deviation and a 95% bootstrap CI. Expected shape:
// the method ordering from T2 is stable across corpora — the CIs of
// QISA-Rank and CiteCount do not overlap.
func runVariance(opts Options) ([]*Table, error) {
	accs := map[string][]float64{}
	for seed := int64(0); seed < varianceSeeds; seed++ {
		seedOpts := opts
		seedOpts.Seed += seed * 1000
		c, err := preset(sizeMedium, seedOpts)
		if err != nil {
			return nil, err
		}
		for _, m := range varianceMethods {
			vals, err := score(c, m, []metric{futureAcc(9000 + seed)})
			if err != nil {
				return nil, fmt.Errorf("%w (seed %d)", err, seed)
			}
			accs[m.label] = append(accs[m.label], vals[0][0].(float64))
		}
	}
	t := &Table{ID: "T8", Title: fmt.Sprintf("Accuracy spread over %d corpus seeds (medium corpus)", varianceSeeds),
		Columns: []string{"method", "mean-acc", "stddev", "ci95-lo", "ci95-hi"},
		Notes:   []string{"CI: percentile bootstrap over the per-seed accuracies"}}
	for _, m := range varianceMethods {
		xs := accs[m.label]
		lo, hi, err := eval.BootstrapMeanCI(xs, 0.95, 2000, rand.New(rand.NewSource(9100)))
		if err != nil {
			return nil, err
		}
		t.AddRow(m.label, eval.Mean(xs), eval.StdDev(xs), lo, hi)
	}
	p, err := eval.PairedBootstrapPValue(accs[qisaMethodName], accs["CiteRank"], 5000,
		rand.New(rand.NewSource(9200)))
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"paired bootstrap p-value for QISA-Rank <= CiteRank across seeds: %.4f", p))
	return []*Table{t}, nil
}

// runDecaySweep (F1) sweeps the recency decay rate. Expected shape: an
// inverted U — rho = 0 degrades to static ranking (recency-blind),
// very large rho forgets all prestige.
func runDecaySweep(opts Options, c *cell) ([]*Table, error) {
	rhos := sweep([]float64{0, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4},
		func(o *core.Options, rho float64) { o.RhoRecency = rho })
	t := &Table{ID: "F1", Title: "Pairwise accuracy vs recency decay rho (medium corpus)", Columns: []string{"rho"},
		Notes: []string{"gap decay held at default; rho applies to teleport and popularity"}}
	return byMethod(t, []*cell{c}, rhos, futureAcc(3000+opts.Seed))
}

// runEnsembleSweep (F2, F2b) sweeps the prestige-vs-rest balance under
// the arithmetic ensemble, then compares the three ensemble kinds at
// equal weights, both on one engine.
func runEnsembleSweep(opts Options, c *cell) ([]*Table, error) {
	acc := futureAcc(3000 + opts.Seed)
	wps := sweep([]float64{0, 0.2, 0.4, 0.6, 0.8, 1}, func(o *core.Options, wp float64) {
		o.Ensemble = core.Arithmetic
		o.WPrestige, o.WPopularity, o.WHetero = wp, (1-wp)/2, (1-wp)/2
	})
	var kinds []method
	for _, kind := range []core.EnsembleKind{core.Harmonic, core.Geometric, core.Arithmetic} {
		kinds = append(kinds, variant(kind.String(), func(o *core.Options) { o.Ensemble = kind }))
	}
	weights, err := byMethod(&Table{ID: "F2", Title: "Accuracy vs prestige weight (arithmetic ensemble, medium corpus)",
		Columns: []string{"w-prestige"}, Notes: []string{"remaining weight split equally between popularity and hetero"}},
		[]*cell{c}, wps, acc)
	if err != nil {
		return nil, err
	}
	byKind, err := byMethod(&Table{ID: "F2b", Title: "Accuracy by ensemble kind (equal weights, medium corpus)",
		Columns: []string{"ensemble"}}, []*cell{c}, kinds, acc)
	if err != nil {
		return nil, err
	}
	return append(weights, byKind...), nil
}

// coldStartBuckets is the number of article-age buckets F4 reports.
const coldStartBuckets = 6

// runColdStart (F4) is the recency-bias figure. Among articles that
// *will* be high-impact (global top decile by future citations), it
// reports the mean rank percentile each method assigns, bucketed by
// article age at ranking time. A recency-unbiased method keeps the
// curve high and flat; citation-count-driven methods collapse on the
// young buckets — the headline failure QISA-Rank fixes.
func runColdStart(_ Options, c *cell) ([]*Table, error) {
	n := c.net.NumArticles()
	maxAge := max(c.net.Now-slices.Min(c.net.Years), 0) // the oldest article's Age
	// The high-impact set (global top 10% by future citations) in id
	// order, each with its age bucket over the visible timeline.
	impactful := rank.TopK(c.future, n/10)
	slices.Sort(impactful)
	buckets := make([]int, len(impactful))
	for j, i := range impactful {
		if maxAge > 0 {
			buckets[j] = min(int(c.net.Age(int32(i))/maxAge*coldStartBuckets), coldStartBuckets-1)
		}
	}
	bucket := metric{eval: func(_ *cell, _ string, s []float64) ([]any, error) {
		pct := eval.Percentiles(s)
		var sums, counts [coldStartBuckets]float64
		for j, i := range impactful {
			sums[buckets[j]] += pct[i]
			counts[buckets[j]]++
		}
		row := make([]any, coldStartBuckets)
		for b := range row {
			row[b] = sums[b] / counts[b] // NaN, rendered n/a, for an empty bucket
		}
		return row, nil
	}}
	for b := 0; b < coldStartBuckets; b++ {
		bucket.cols = append(bucket.cols, fmt.Sprintf("age-b%d", b))
	}
	t := &Table{ID: "F4", Title: "Mean rank percentile of future-high-impact articles by age bucket",
		Columns: []string{"method"}, Notes: []string{
			"bucket 0 = youngest articles; percentile 1.0 = ranked best",
			"high-impact set: top 10% by future citations",
		}}
	return byMethod(t, []*cell{c}, methods, bucket)
}

// runSparsity (F5, F5b) is the link-sparsity robustness figure: drop a
// fraction of the visible citations, re-rank, and measure both the
// absolute accuracy against future citations and the Kendall τ of
// each method's sparse ranking against its own full ranking.
// Heterogeneous, time-aware methods are expected to degrade most
// gracefully: the author/venue layers and recency signal survive edge
// loss.
func runSparsity(opts Options, full *cell) ([]*Table, error) {
	fullScores := make(map[string][]float64, len(methods))
	for _, m := range methods {
		var err error
		if fullScores[m.label], err = m.scores(full); err != nil {
			return nil, err
		}
	}
	tau := metric{eval: func(_ *cell, label string, s []float64) ([]any, error) {
		v, err := eval.KendallTau(s, fullScores[label])
		return []any{v}, err
	}}
	tables := []*Table{
		{ID: "F5", Title: "Pairwise accuracy vs fraction of citations retained", Columns: []string{"retained"}},
		{ID: "F5b", Title: "Kendall tau of sparse ranking vs own full ranking", Columns: []string{"retained"},
			Notes: []string{"higher tau = ranking more stable under edge loss"}},
	}
	return byFraction(full, tables, []float64{0.2, 0.4, 0.6, 0.8, 1.0}, 4000+opts.Seed,
		gen.SampleCitations, futureAcc(5000+opts.Seed), tau)
}

// runNoise (F8) perturbs the publication year of a growing fraction of
// articles (±3 years) and measures how each method's accuracy against
// the *clean* future-citation ground truth degrades. Time-aware
// methods consume years directly, so this probes whether their
// advantage survives the metadata quality of real bibliographic
// dumps. Expected shape: static methods are flat by construction
// (they ignore years — CiteCount/PageRank/HITS exactly, year-
// normalised counts mildly affected); the time-aware family loses a
// few points but stays far above the static family.
func runNoise(opts Options, c *cell) ([]*Table, error) {
	t := &Table{ID: "F8", Title: "Pairwise accuracy vs fraction of articles with noisy years (±3y)",
		Columns: []string{"noisy-frac"}, Notes: []string{"years perturbed after the holdout split; ground truth stays clean"}}
	perturb := func(s *corpus.Store, frac float64, rng *rand.Rand) (*corpus.Store, error) {
		return gen.PerturbYears(s, frac, 3, rng)
	}
	return byFraction(c, []*Table{t}, []float64{0, 0.1, 0.25, 0.5, 1.0}, 7000+opts.Seed,
		perturb, futureAcc(7100+opts.Seed))
}

// fieldCount and the density spread define the multi-field workload:
// five fields whose citation densities differ ~9x end to end, with
// 85% of citations staying within the citer's field — the regime in
// which raw citation counts systematically over-rank dense fields.
const (
	fieldCount   = 5
	fieldBias    = 0.85
	fieldDensity = 2.0
)

// runFields (F9) evaluates ranking on a corpus with research fields of
// unequal citation density. Expected shapes: (a) field-normalised
// counts beat raw counts on pairwise accuracy (but not necessarily
// year-normalised counts — future-citation ground truth is itself
// field-biased, so full normalisation trades a little raw accuracy
// for fairness); (b) field-blind count methods over-fill the global
// top 100 with articles from the densest field, while field-normalised
// counts remove that bias.
func runFields(opts Options) ([]*Table, error) {
	n, err := presetArticles(sizeMedium, opts.Quick)
	if err != nil {
		return nil, err
	}
	cfg := gen.NewDefaultConfig(n)
	cfg.Seed += 500 + opts.Seed
	cfg.Fields, cfg.FieldBias, cfg.FieldDensitySpread = fieldCount, fieldBias, fieldDensity
	corp, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	c, err := holdoutCell("fields", corp, opts)
	if err != nil {
		return nil, err
	}
	// Field labels on the train ids, and the densest field: the one
	// with the most citations received per article.
	fields := make([]int, len(c.h.FullID))
	in := c.net.Citations.InDegrees()
	var cites, articles [fieldCount]float64
	for i, id := range c.h.FullID {
		fields[i] = corp.Field[id]
		cites[fields[i]] += float64(in[i])
		articles[fields[i]]++
	}
	densest := 0
	for f := range cites {
		if cites[f]/articles[f] > cites[densest]/articles[densest] {
			densest = f
		}
	}
	// FieldNorm needs the field labels, so it is the one contender that
	// is not a registered scorer.
	fieldNorm := method{label: "FieldNorm", scores: func(c *cell) ([]float64, error) {
		return rank.GroupNormCiteCount(c.net.Citations, fields, c.net.Years)
	}}
	top := metric{[]string{"top100-densest-share"}, func(_ *cell, _ string, s []float64) ([]any, error) {
		var fromDensest int
		for _, i := range rank.TopK(s, 100) {
			if fields[i] == densest {
				fromDensest++
			}
		}
		return []any{float64(fromDensest) / 100}, nil
	}}
	spread := (1 + fieldDensity) * (1 + fieldDensity)
	densestShare := articles[densest] / float64(len(fields))
	t := &Table{ID: "F9", Title: fmt.Sprintf("Multi-field corpus (%d fields, ~%gx density spread)", fieldCount, spread),
		Columns: []string{"method"}, Notes: []string{
			fmt.Sprintf("densest field holds %.0f%% of articles; an unbiased top-100 matches that share", densestShare*100),
			"field-blind citation counts over-rank the dense field; field normalisation corrects it",
		}}
	ms := append(pick("CiteCount", "YearNorm"), fieldNorm, pick(qisaMethodName)[0])
	return byMethod(t, []*cell{c}, ms, futureAcc(9500+opts.Seed), ndcg50("ndcg@50"), top)
}

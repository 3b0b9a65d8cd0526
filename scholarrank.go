// Package scholarrank is a query-independent scholarly article
// ranking library: given a corpus of articles with publication years,
// citations, authors and venues, it computes an importance score per
// article that balances long-run citation prestige with current
// attention and remains meaningful for recently published work.
//
// The core algorithm, QISA-Rank, combines three signals over the
// heterogeneous academic network (see internal/core for the model):
//
//   - prestige — time-weighted PageRank over the citation graph,
//   - popularity — recency-decayed citation intensity,
//   - hetero — a coupled article–author–venue walk that lets new
//     articles inherit signal from their authors' and venue's record.
//
// The package also implements the standard baselines the literature
// compares against (citation counts, PageRank, HITS, CiteRank,
// FutureRank, P-Rank, …) as scorers behind the same RankScorer call,
// a synthetic corpus generator with realistic citation statistics,
// temporal holdout evaluation, and ranking quality metrics.
//
// # Quick start
//
//	b := scholarrank.NewBuilder()
//	// ... add articles and citations ...
//	store := b.Freeze() // immutable columnar Store
//	net := scholarrank.BuildNetwork(store)
//	scores, err := scholarrank.Rank(net, scholarrank.DefaultOptions())
//	if err != nil { ... }
//	for _, i := range scholarrank.TopK(scores.Importance, 10) {
//		fmt.Println(store.Article(scholarrank.ArticleID(i)).Title)
//	}
//
// Corpora live in two states: a mutable Builder (load/ingest time)
// and an immutable columnar Store (rank/serve time). Freeze converts
// the first into the second; Store.Thaw reopens a frozen corpus for
// further growth. The SCORP binary format (WriteSCORPFile /
// ReadSCORPFile) persists a frozen Store column-for-column so a
// serving process boots without parsing any text; OpenMapped goes one
// step further and serves the file zero-copy through mmap, making
// boot O(1) in corpus size.
package scholarrank

import (
	"io"
	"math/rand"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/dynamics"
	"scholarrank/internal/eval"
	"scholarrank/internal/gen"
	"scholarrank/internal/graph"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
	"scholarrank/internal/retrieval"
	"scholarrank/internal/sparse"
	"scholarrank/internal/temporal"
)

// Corpus model. A Builder interns articles, authors and venues into
// dense indices and Freeze packs them into an immutable columnar
// Store; all score vectors are indexed by ArticleID.
type (
	// Builder accumulates a corpus; Freeze yields the Store.
	Builder = corpus.Builder
	// Store holds a frozen scholarly corpus.
	Store = corpus.Store
	// Article is one article record inside a Store.
	Article = corpus.Article
	// ArticleMeta describes an article to add to a Store.
	ArticleMeta = corpus.ArticleMeta
	// ArticleID, AuthorID and VenueID are dense entity indices.
	ArticleID = corpus.ArticleID
	// AuthorID indexes an author within a Store.
	AuthorID = corpus.AuthorID
	// VenueID indexes a venue within a Store.
	VenueID = corpus.VenueID
	// ReadOptions tunes corpus decoding.
	ReadOptions = corpus.ReadOptions
)

// NoVenue marks an article without a publication venue.
const NoVenue = corpus.NoVenue

// NewBuilder returns an empty mutable corpus builder.
func NewBuilder() *Builder { return corpus.NewBuilder() }

// ReadJSONL decodes a corpus from one-article-per-line JSON.
func ReadJSONL(r io.Reader, opts ReadOptions) (*Store, error) { return corpus.ReadJSONL(r, opts) }

// WriteJSONL encodes a corpus as one-article-per-line JSON.
func WriteJSONL(w io.Writer, s *Store) error { return corpus.WriteJSONL(w, s) }

// ReadTSV decodes a corpus from the compact TSV schema.
func ReadTSV(r io.Reader, opts ReadOptions) (*Store, error) { return corpus.ReadTSV(r, opts) }

// WriteTSV encodes a corpus in the compact TSV schema.
func WriteTSV(w io.Writer, s *Store) error { return corpus.WriteTSV(w, s) }

// ReadAMinerJSON decodes the AMiner citation-dataset JSON-lines
// schema, leniently: bad records are skipped and out-of-dump
// citations dropped, with counts returned for data-quality reporting.
func ReadAMinerJSON(r io.Reader) (s *Store, skippedRecords, droppedCitations int, err error) {
	return corpus.ReadAMinerJSON(r)
}

// ReadSCORP decodes a columnar SCORP corpus — the zero-parse boot
// format: the frozen Store's columns are materialised directly from
// the sectioned, CRC-checked byte stream.
func ReadSCORP(r io.Reader) (*Store, error) { return corpus.ReadSCORP(r) }

// WriteSCORP encodes a frozen corpus in the columnar SCORP format.
func WriteSCORP(w io.Writer, s *Store) error { return corpus.WriteSCORP(w, s) }

// ReadSCORPFile loads a SCORP corpus file onto the heap, reading only
// the sections the store needs.
func ReadSCORPFile(path string) (*Store, error) { return corpus.ReadSCORPFile(path) }

// OpenMapped opens a SCORP corpus file as a zero-copy memory-mapped
// Store: the columns alias the mapped pages, boot costs O(section
// table) regardless of corpus size, and the OS page cache backs
// corpora larger than RAM. Close the returned store when done;
// unaligned files (and platforms without mmap) transparently fall
// back to the heap loader, where Close is a no-op. See
// Store.LoadMode, Store.Retain and Store.Verify for the lifetime and
// trust contracts.
func OpenMapped(path string) (*Store, error) { return corpus.OpenMapped(path) }

// WriteSCORPFile atomically writes a SCORP corpus file (temp file +
// fsync + rename, so readers never observe a partial corpus).
func WriteSCORPFile(path string, s *Store) error { return corpus.WriteSCORPFile(path, s) }

// Network is the assembled heterogeneous view of a corpus: citation
// graph, author and venue layers, publication times.
type Network = hetnet.Network

// BuildNetwork indexes a corpus for ranking. The store must not be
// mutated afterwards.
func BuildNetwork(s *Store) *Network { return hetnet.Build(s) }

// QISA-Rank configuration and results.
type (
	// Options configures QISA-Rank; start from DefaultOptions.
	Options = core.Options
	// Scores carries the importance vector and component signals.
	Scores = core.Scores
	// EnsembleKind selects how component signals are combined.
	EnsembleKind = core.EnsembleKind
	// IterOptions controls iterative convergence (tolerance, budget).
	IterOptions = sparse.IterOptions
	// IterStats reports how an iterative stage converged.
	IterStats = sparse.IterStats
)

// Ensemble kinds for Options.Ensemble.
const (
	// EnsembleHarmonic demands strength on every signal.
	EnsembleHarmonic = core.Harmonic
	// EnsembleArithmetic is the weighted mean of the signals.
	EnsembleArithmetic = core.Arithmetic
	// EnsembleGeometric is the weighted geometric mean (the
	// DefaultOptions ensemble, over rank-percentile signals).
	EnsembleGeometric = core.Geometric
)

// DefaultOptions returns the library's standard QISA-Rank
// parameterisation.
func DefaultOptions() Options { return core.DefaultOptions() }

// Rank computes QISA-Rank importance scores for every article.
func Rank(net *Network, opts Options) (*Scores, error) { return core.Rank(net, opts) }

// Ranking history and explanations.
type (
	// RankSnapshot is one article's ranking state at one cutoff year.
	RankSnapshot = core.Snapshot
	// RankTrajectory is one article's ranking across snapshots.
	RankTrajectory = core.History
	// Explanation decomposes why one article outranks another.
	Explanation = core.Explanation
	// SignalDelta is one signal's contribution to an Explanation.
	SignalDelta = core.SignalDelta
	// Explainer answers repeated Explain queries in O(1).
	Explainer = core.Explainer
)

// NewExplainer precomputes the percentile vectors behind Explain for
// repeated queries.
func NewExplainer(sc *Scores) *Explainer { return core.NewExplainer(sc) }

// RankHistory replays the corpus at each cutoff year and records the
// ranking trajectory of the requested article keys.
func RankHistory(s *Store, keys []string, cutoffs []int, opts Options) ([]RankTrajectory, error) {
	return core.RankHistory(s, keys, cutoffs, opts)
}

// Engine ranks one network repeatedly under varying options, caching
// the parameter-independent substrate between calls — the right tool
// for parameter sweeps and interactive tuning.
type Engine = core.Engine

// NewEngine wraps a network for repeated ranking.
func NewEngine(net *Network) *Engine { return core.NewEngine(net) }

// Scorers: every registered ranking algorithm — QISA-Rank ("default"),
// its single signals ("prestige", "popularity", "hetero") and the
// compared baselines ("citecount", "yearnorm", "agenorm", "pagerank",
// "hits", "sceas", "timedpr", "citerank", "futurerank", "corank",
// "prank", "ewpr") — ranks through one call.

// ScorerOptions is a scorer's option bag of named numeric knobs (for
// example {"damping": 0.9}); nil selects every default.
type ScorerOptions = core.ScorerOptions

// RankScorer ranks the network with the named scorer. The scorer's own
// parameters come from sopts; from opts a baseline reads only Workers,
// Iter and Trace.
func RankScorer(net *Network, name string, sopts ScorerOptions, opts Options) (*Scores, error) {
	return core.RankScorer(net, name, sopts, opts)
}

// GroupNormCiteCount ranks by citation count normalised within each
// (group, year) cell — pass research-field labels as groups to get
// field-normalised citation counts.
func GroupNormCiteCount(net *Network, groups []int) ([]float64, error) {
	return rank.GroupNormCiteCount(net.Citations, groups, net.Years)
}

// Entity (author and venue) ranking derived from article scores.
type (
	// EntityRankOptions configures author/venue score aggregation.
	EntityRankOptions = rank.EntityRankOptions
	// EntityAggregate selects the aggregation rule.
	EntityAggregate = rank.EntityAggregate
)

// Entity aggregation rules for EntityRankOptions.Aggregate.
const (
	// AggSum totals article scores (volume-rewarding).
	AggSum = rank.AggSum
	// AggMean averages article scores (volume-neutral).
	AggMean = rank.AggMean
	// AggShrunkMean is the Bayesian-shrunk mean (default).
	AggShrunkMean = rank.AggShrunkMean
)

// AuthorRank aggregates article importance into per-author scores.
func AuthorRank(net *Network, articleScores []float64, opts EntityRankOptions) ([]float64, error) {
	return rank.AuthorRank(net, articleScores, opts)
}

// VenueRank aggregates article importance into per-venue scores.
func VenueRank(net *Network, articleScores []float64, opts EntityRankOptions) ([]float64, error) {
	return rank.VenueRank(net, articleScores, opts)
}

// TopK returns the indices of the k highest scores in descending
// order, with deterministic tie-breaks.
func TopK(scores []float64, k int) []int { return rank.TopK(scores, k) }

// Related-article search.
type (
	// RelatedIndex answers "articles related to X" queries via a
	// personalised bidirectional citation walk.
	RelatedIndex = rank.RelatedIndex
	// RelatedOptions configures related-article search.
	RelatedOptions = rank.RelatedOptions
)

// NewRelatedIndex builds a related-article index over the network.
func NewRelatedIndex(net *Network, opts RelatedOptions) (*RelatedIndex, error) {
	return rank.NewRelatedIndex(net, opts)
}

// Synthetic corpora and evaluation workloads.
type (
	// GeneratorConfig parameterises the synthetic corpus generator.
	GeneratorConfig = gen.Config
	// GeneratedCorpus is a synthetic corpus with oracle ground truth.
	GeneratedCorpus = gen.Corpus
	// Holdout is a temporal train/future evaluation split.
	Holdout = gen.Holdout
)

// DefaultGeneratorConfig returns generator settings that produce
// corpora with realistic citation statistics for n articles.
func DefaultGeneratorConfig(n int) GeneratorConfig { return gen.NewDefaultConfig(n) }

// GenerateCorpus synthesises a corpus (deterministic per seed).
func GenerateCorpus(cfg GeneratorConfig) (*GeneratedCorpus, error) { return gen.Generate(cfg) }

// SplitByYear builds the temporal holdout used for future-impact
// evaluation: rank on articles up to the cutoff year, score against
// citations arriving later.
func SplitByYear(s *Store, cutoffYear int) (*Holdout, error) { return gen.SplitByYear(s, cutoffYear) }

// SampleCitations keeps each citation with probability frac — the
// sparsity robustness workload.
func SampleCitations(s *Store, frac float64, rng *rand.Rand) (*Store, error) {
	return gen.SampleCitations(s, frac, rng)
}

// Ranking-quality metrics.

// PairwiseAccuracy estimates agreement between a predicted ranking
// and ground truth over (sampled) item pairs.
func PairwiseAccuracy(pred, truth []float64, rng *rand.Rand, samples int) (float64, int, error) {
	return eval.PairwiseAccuracy(pred, truth, rng, samples)
}

// KendallTau computes Kendall's τ-b between two score vectors.
func KendallTau(a, b []float64) (float64, error) { return eval.KendallTau(a, b) }

// Spearman computes Spearman's ρ between two score vectors.
func Spearman(a, b []float64) (float64, error) { return eval.Spearman(a, b) }

// NDCG computes normalised discounted cumulative gain at cutoff k.
func NDCG(pred, relevance []float64, k int) (float64, error) { return eval.NDCG(pred, relevance, k) }

// RecallAtK measures how much of the relevant set the top-k contains.
func RecallAtK(pred []float64, relevant map[int]bool, k int) float64 {
	return eval.RecallAtK(pred, relevant, k)
}

// Percentiles maps scores to rank percentiles in [0, 1] (1 = best).
func Percentiles(scores []float64) []float64 { return eval.Percentiles(scores) }

// RBO computes top-weighted rank-biased overlap between two rankings
// with persistence p.
func RBO(a, b []float64, p float64) (float64, error) { return eval.RBO(a, b, p) }

// BootstrapMeanCI estimates a percentile-bootstrap confidence
// interval for the mean of xs.
func BootstrapMeanCI(xs []float64, conf float64, rounds int, rng *rand.Rand) (lo, hi float64, err error) {
	return eval.BootstrapMeanCI(xs, conf, rounds, rng)
}

// Retrieval blending: the downstream-search use of the importance
// prior.
type (
	// RetrievalQuery is one synthetic topical query with its noisy
	// relevance estimates and evaluation gains.
	RetrievalQuery = retrieval.Query
	// WorkloadOptions configures synthetic query generation.
	WorkloadOptions = retrieval.WorkloadOptions
	// LambdaPoint is one point of a blending sweep.
	LambdaPoint = retrieval.LambdaPoint
)

// DefaultWorkloadOptions returns the standard retrieval workload
// parameters.
func DefaultWorkloadOptions() WorkloadOptions { return retrieval.DefaultWorkloadOptions() }

// BuildWorkload synthesises topical queries over the network; quality
// provides the graded gains (use the generator's latent quality, or
// any graded relevance notion).
func BuildWorkload(net *Network, quality []float64, opts WorkloadOptions) ([]RetrievalQuery, error) {
	return retrieval.BuildWorkload(net, quality, opts)
}

// BlendRetrieval interpolates per-query relevance with the importance
// prior: lambda·relevance + (1-lambda)·importance, rank-percentile
// scaled.
func BlendRetrieval(q RetrievalQuery, importance []float64, lambda float64) ([]float64, error) {
	return retrieval.Blend(q, importance, lambda)
}

// MeanBlendNDCG scores a blending weight over a workload by mean
// NDCG@k.
func MeanBlendNDCG(queries []RetrievalQuery, importance []float64, lambda float64, k int) (float64, error) {
	return retrieval.MeanNDCG(queries, importance, lambda, k)
}

// BestBlendLambda sweeps the blending weight and returns the best
// value with the full sweep.
func BestBlendLambda(queries []RetrievalQuery, importance []float64, k int) (float64, []LambdaPoint, error) {
	return retrieval.BestLambda(queries, importance, k)
}

// Citation-dynamics analytics.

// Beauty holds one article's sleeping-beauty statistics (Ke et al.).
type Beauty = dynamics.Beauty

// CitationSeries returns each article's yearly citation counts from
// publication to the corpus's last year.
func CitationSeries(s *Store) [][]int { return dynamics.CitationSeries(s) }

// BeautyCoefficient computes the sleeping-beauty statistics of one
// yearly citation series.
func BeautyCoefficient(series []int) (Beauty, error) { return dynamics.BeautyCoefficient(series) }

// SleepingBeauties returns the k articles with the highest beauty
// coefficients, plus every article's statistics.
func SleepingBeauties(s *Store, k int) ([]int, []Beauty, error) {
	return dynamics.SleepingBeauties(s, k)
}

// Graph and time utilities re-exported for advanced use.
type (
	// Graph is the compact CSR directed graph.
	Graph = graph.Graph
	// GraphStats summarises a graph's structure.
	GraphStats = graph.Stats
	// DecayKernel maps an age in years to a weight in (0, 1].
	DecayKernel = temporal.Kernel
)

// ComputeGraphStats gathers structural statistics for a graph.
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// NewExponentialDecay returns the kernel exp(-rho·age).
func NewExponentialDecay(rho float64) (DecayKernel, error) { return temporal.NewExponential(rho) }

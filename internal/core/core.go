// Package core implements QISA-Rank, the query-independent scholarly
// article ranking algorithm this repository reproduces. QISA-Rank
// combines three signals computed over the heterogeneous academic
// network:
//
//   - Prestige: a time-weighted PageRank over the citation graph.
//     Citation edges are discounted by the citation gap
//     exp(-ρ_gap·(t_citing - t_cited)) — a 30-year-old citation
//     transfers less endorsement than last year's — and the walk
//     restarts at recent articles (recency-personalised teleport), so
//     prestige must be reachable from the current research frontier.
//
//   - Popularity: the time-decayed citation intensity
//     Σ exp(-ρ_rec·(now - t_citing)) over an article's citers — the
//     "current attention" an article receives, regardless of where
//     its citers sit in the citation hierarchy.
//
//   - Hetero: a coupled random walk over articles, authors and venues
//     with a recency restart. Articles too new to have citations
//     inherit mass from their authors' and venue's track record,
//     which is the algorithm's answer to the cold-start problem.
//
// The three signals are normalised and folded by a configurable
// ensemble. DefaultOptions replaces each signal by its rank percentile
// and takes a prestige-weighted geometric mean, the parameterisation
// the F1/F2 studies select; min–max normalisation and the harmonic and
// arithmetic means are the alternatives.
package core

import (
	"errors"
	"fmt"
	"time"

	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// ErrBadOptions reports invalid QISA-Rank parameters.
var ErrBadOptions = errors.New("core: invalid options")

// EnsembleKind selects how the normalised signals are folded into the
// final importance score.
type EnsembleKind int

// Ensemble kinds.
const (
	// Harmonic is the weighted harmonic mean: dominated by the
	// weakest signal, so importance demands prestige AND popularity.
	Harmonic EnsembleKind = iota
	// Arithmetic is the weighted arithmetic mean.
	Arithmetic
	// Geometric is the weighted geometric mean.
	Geometric
)

// String implements fmt.Stringer for experiment tables.
func (k EnsembleKind) String() string {
	switch k {
	case Harmonic:
		return "harmonic"
	case Arithmetic:
		return "arithmetic"
	case Geometric:
		return "geometric"
	default:
		return fmt.Sprintf("EnsembleKind(%d)", int(k))
	}
}

// NormKind selects the per-signal normalisation applied before the
// ensemble.
type NormKind int

// Normalisation kinds.
const (
	// NormPercentile replaces each signal by its rank percentile — a
	// Borda-style fusion, robust to heavy-tailed score distributions.
	NormPercentile NormKind = iota
	// NormMinMax linearly rescales each signal to [0, 1].
	NormMinMax
)

// String implements fmt.Stringer for experiment tables.
func (k NormKind) String() string {
	switch k {
	case NormPercentile:
		return "percentile"
	case NormMinMax:
		return "minmax"
	default:
		return fmt.Sprintf("NormKind(%d)", int(k))
	}
}

// Options configures QISA-Rank. The zero value is not valid; start
// from DefaultOptions.
type Options struct {
	// RhoGap is the per-year decay of citation-edge weight with the
	// citation gap (age difference between citing and cited article).
	RhoGap float64
	// RhoRecency is the per-year decay used for the recency teleport
	// vector and the popularity signal.
	RhoRecency float64
	// RhoFade is the per-year decay applied to the prestige signal
	// itself after the walk (prestige × exp(-RhoFade·age)): accumulated
	// standing loses current value as an article ages, the
	// "current prestige" correction of the TimedPageRank line of
	// work. Zero disables fading.
	RhoFade float64
	// Damping is the prestige walk's damping factor.
	Damping float64

	// LambdaCite, LambdaAuthor, LambdaVenue and LambdaTime mix the
	// heterogeneous walk. They must be non-negative and sum to 1;
	// LambdaTime must be positive (it is the restart that guarantees
	// convergence).
	LambdaCite   float64
	LambdaAuthor float64
	LambdaVenue  float64
	LambdaTime   float64

	// Ensemble selects the signal combination rule, weighted by
	// WPrestige, WPopularity and WHetero (non-negative, not all 0).
	Ensemble    EnsembleKind
	WPrestige   float64
	WPopularity float64
	WHetero     float64
	// Normalization selects how signals are rescaled before the
	// ensemble: rank percentile (default, robust to the heavy-tailed
	// score distributions) or min–max.
	Normalization NormKind

	// Workers sets the parallelism of the pooled kernels (prescaling,
	// renormalisation, layer gathers); values < 1 select NumCPU.
	// The Gauss–Seidel sweeps are serial, so scores do not depend on it.
	// Workers, Iter and Trace are the only fields the baseline scorers
	// read; their own parameters come from the scorer option bag.
	Workers int
	// Iter controls convergence of every iterative stage.
	Iter sparse.IterOptions

	// Shards cuts the citation graph into this many edge-balanced
	// contiguous row ranges (internal/shard) and reports them on the
	// result (Scores.Shards, ShardEdges, IterStats.Exchanges). It is a
	// label only: the Gauss–Seidel sweep is one top-down pass whatever
	// the partition, so the scores do not depend on it. Values < 2
	// select no partition.
	Shards int

	// AitkenEvery sets the cadence of Aitken Δ² extrapolation in the
	// damped walks (prestige and the citation-only baselines; a layered
	// walk never extrapolates): every AitkenEvery plain sweeps the
	// solver attempts a vector-extrapolated jump, keeping it only when
	// it shrinks the residual (see sparse.IterOptions.AitkenEvery). 0
	// selects the default cadence; negative disables extrapolation. The
	// fixed point is unchanged either way — it only cuts sweep count.
	AitkenEvery int

	// Trace, when set, receives one event per solver iteration from
	// both iterative stages (phase, iteration number, residual, wall
	// time) — the hook behind `sarank -trace`, the serving /stats
	// surface and convergence experiments. It is called synchronously
	// on the solver goroutine; keep it cheap.
	Trace func(TraceEvent)

	// InitialScores optionally seeds the iterative stages from a
	// previous solution — the warm-start path of live corpus updates,
	// where a delta grows the corpus slightly and the previous score
	// vector (extended with sparse.Resized) is already close to the
	// new fixed point. The fixed points do not depend on the starting
	// vector, so this is purely an iteration-count optimisation.
	// Vectors must have length NumArticles; either may be nil.
	InitialScores *InitialScores

	// Ablation switches used by the experiment suite.
	//
	// DisableTimeDecay forces both decay rates to zero, degrading
	// prestige to plain PageRank and popularity to citation count.
	DisableTimeDecay bool
	// DisableAuthors removes the author layer from the heterogeneous
	// walk (its weight folds into the citation layer).
	DisableAuthors bool
	// DisableVenues removes the venue layer likewise.
	DisableVenues bool
}

// DefaultOptions returns the parameterisation selected by the
// parameter studies (figures F1/F2): moderate gap decay, an
// attention horizon of ~15 months (rho 0.8/year), citation-dominant
// heterogeneous mixing, and a prestige-weighted geometric ensemble
// over rank-percentile-normalised signals.
func DefaultOptions() Options {
	return Options{
		RhoGap:     0.1,
		RhoRecency: 0.8,
		RhoFade:    0.2,
		Damping:    0.85,
		LambdaCite: 0.55, LambdaAuthor: 0.15, LambdaVenue: 0.10, LambdaTime: 0.20,
		Ensemble:      Geometric,
		WPrestige:     3,
		WPopularity:   2,
		WHetero:       1,
		Normalization: NormPercentile,
		AitkenEvery:   defaultAitkenEvery,
	}
}

// defaultAitkenEvery is the extrapolation cadence selected when
// Options.AitkenEvery is 0: frequent enough to realise most of the
// iteration savings, rare enough that a rejected trial (one wasted
// sweep) costs at most a quarter of the work.
const defaultAitkenEvery = 4

// effective returns the options with ablation switches applied.
func (o Options) effective() Options {
	if o.DisableTimeDecay {
		o.RhoGap, o.RhoRecency, o.RhoFade = 0, 0, 0
	}
	if o.DisableAuthors {
		o.LambdaCite += o.LambdaAuthor
		o.LambdaAuthor = 0
	}
	if o.DisableVenues {
		o.LambdaCite += o.LambdaVenue
		o.LambdaVenue = 0
	}
	switch {
	case o.AitkenEvery == 0:
		o.AitkenEvery = defaultAitkenEvery
	case o.AitkenEvery < 0:
		o.AitkenEvery = 0 // explicit disable
	}
	return o
}

func (o Options) validate() error {
	if !(min(o.RhoGap, o.RhoRecency, o.RhoFade) >= 0) {
		return fmt.Errorf("%w: decay rates %v/%v/%v", ErrBadOptions, o.RhoGap, o.RhoRecency, o.RhoFade)
	}
	if o.Damping <= 0 || o.Damping >= 1 {
		return fmt.Errorf("%w: damping %v", ErrBadOptions, o.Damping)
	}
	if min(o.LambdaCite, o.LambdaAuthor, o.LambdaVenue, o.LambdaTime) < 0 {
		return fmt.Errorf("%w: negative lambda", ErrBadOptions)
	}
	s := o.LambdaCite + o.LambdaAuthor + o.LambdaVenue + o.LambdaTime
	if s < 1-1e-9 || s > 1+1e-9 {
		return fmt.Errorf("%w: lambdas sum to %v, want 1", ErrBadOptions, s)
	}
	if o.LambdaTime <= 0 {
		return fmt.Errorf("%w: LambdaTime must be positive (restart term)", ErrBadOptions)
	}
	if o.WPrestige < 0 || o.WPopularity < 0 || o.WHetero < 0 {
		return fmt.Errorf("%w: negative ensemble weight", ErrBadOptions)
	}
	if o.WPrestige+o.WPopularity+o.WHetero <= 0 {
		return fmt.Errorf("%w: all ensemble weights zero", ErrBadOptions)
	}
	switch o.Ensemble {
	case Harmonic, Arithmetic, Geometric:
	default:
		return fmt.Errorf("%w: unknown ensemble kind %d", ErrBadOptions, int(o.Ensemble))
	}
	switch o.Normalization {
	case NormPercentile, NormMinMax:
	default:
		return fmt.Errorf("%w: unknown normalization %d", ErrBadOptions, int(o.Normalization))
	}
	if o.Shards < 0 {
		return fmt.Errorf("%w: Shards %d, want >= 0", ErrBadOptions, o.Shards)
	}
	return nil
}

// Phase names of the QISA-Rank stages, as reported in
// TraceEvent.Phase. Every other scorer traces under its registry name
// (an ensemble's members under one).
const (
	// PhasePrestige is the gap-weighted, recency-personalised
	// PageRank stage.
	PhasePrestige = "prestige"
	// PhaseHetero is the coupled article–author–venue walk stage.
	PhaseHetero = "hetero"
)

// TraceEvent describes one completed iteration of an iterative solver
// stage. Residuals are L1 changes; within one phase they approach the
// tolerance as the walk contracts toward its fixed point.
type TraceEvent struct {
	// Phase is PhasePrestige, PhaseHetero or another scorer's name.
	Phase string
	// Iteration is 1-based within the phase.
	Iteration int
	// Residual is the L1 change the iteration produced.
	Residual float64
	// Elapsed is the wall time of the single iteration.
	Elapsed time.Duration
}

// InitialScores carries previous-solution vectors used to warm-start
// the two iterative stages. Prestige should be the raw walk result
// (Scores.RawPrestige) — the faded vector is age-reweighted away from
// the walk's fixed point and seeds no better than the teleport — but
// any distribution near the fixed point works, closer is faster.
type InitialScores struct {
	Prestige []float64
	Hetero   []float64
}

// FromScores packages a previous ranking as a warm start, resizing
// each vector to n articles (new tail at zero). The raw prestige is
// preferred over the faded one when available. A nil scores returns
// nil, selecting a cold start.
func FromScores(prev *Scores, n int) *InitialScores {
	if prev == nil {
		return nil
	}
	init := &InitialScores{}
	switch {
	case prev.RawPrestige != nil:
		init.Prestige = sparse.Resized(prev.RawPrestige, n)
	case prev.Prestige != nil:
		init.Prestige = sparse.Resized(prev.Prestige, n)
	}
	if prev.Hetero != nil {
		init.Hetero = sparse.Resized(prev.Hetero, n)
	}
	return init
}

// Scores carries the final importance vector together with each
// component signal, so experiments can ablate without recomputation.
// All vectors are indexed by dense article id.
type Scores struct {
	// Importance is the final ensemble score in [0, 1].
	Importance []float64
	// Prestige, Popularity and Hetero are the raw component signals.
	Prestige   []float64
	Popularity []float64
	Hetero     []float64
	// RawPrestige is the prestige walk's fixed point before the
	// RhoFade age decay — the vector to warm-start a future solve
	// from (see InitialScores). With RhoFade = 0 it equals Prestige.
	RawPrestige []float64
	// PrestigeStats and HeteroStats report convergence and wall time
	// of the two iterative stages. Single-stage scorers report theirs
	// in PrestigeStats.
	PrestigeStats sparse.IterStats
	HeteroStats   sparse.IterStats
	// Shards is the Options.Shards label of a scorer that ran an
	// iterative stage: 1 without explicit shards, 0 when the scorer has
	// no iterative stage. ShardEdges holds each shard's pull-sweep edge
	// count (intra + cross) from the partition plan, nil without
	// explicit shards.
	Shards     int
	ShardEdges []int64
	// BackEdgeFraction is the share of citation edges whose citing
	// article is not above the cited one in solver order — the edges a
	// Gauss–Seidel sweep reads stale (sparse.Transition.BackEdgeFraction
	// of the network's citation operator), reported by every scorer
	// that ran an iterative stage. Zero on a chronologically consistent
	// corpus, where the prestige walk converges in two sweeps; same-year
	// citation cycles raise it and the sweep count with it.
	BackEdgeFraction float64
	// Authors is the author-indexed stationary distribution of the
	// corank scorer's coupled walk; nil for every other scorer, and
	// never persisted in a snapshot.
	Authors []float64
	// Pool summarises the solver's worker pool occupancy over this
	// solve (parallelism, kernel sweeps, chunk tasks).
	Pool sparse.PoolStats
	// Scorer is the registry name of the scorer that produced this
	// result (DefaultScorer for the full QISA-Rank pipeline). Scorers
	// other than the composite leave the component vectors they don't
	// compute nil.
	Scorer string
	// ScorerOpts is the option bag the scorer was constructed with;
	// nil when every default was used.
	ScorerOpts ScorerOptions
}

// Rank computes QISA-Rank over the network. Callers ranking the same
// network repeatedly under different options should hold an Engine
// instead, which caches the parameter-independent substrate.
func Rank(net *hetnet.Network, opts Options) (*Scores, error) {
	return NewEngine(net).Rank(opts)
}

// RankScorer is the one-shot form of Engine.RankScorer: rank the
// network with the named registered scorer and the given option bag.
func RankScorer(net *hetnet.Network, name string, sopts ScorerOptions, opts Options) (*Scores, error) {
	return NewEngine(net).RankScorer(name, sopts, opts)
}

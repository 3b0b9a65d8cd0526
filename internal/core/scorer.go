package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// ErrUnknownScorer reports a scorer name absent from the registry.
var ErrUnknownScorer = errors.New("core: unknown scorer")

// DefaultScorer is the registry name of the full QISA-Rank pipeline —
// the composite that folds prestige, popularity and the heterogeneous
// walk into one importance score. Engine.Rank is shorthand for
// RankScorer(DefaultScorer, nil, opts).
const DefaultScorer = "default"

// Scorer is one query-independent ranking algorithm over the academic
// network. Implementations read everything they need — the solver
// view, cached transition operators, warm-start vectors, iteration
// options with trace hooks bound — from the SolveContext, and return
// the importance vector in original article order (use
// SolveContext.Restore on solver-space vectors). A scorer that also
// produces component signals or solver statistics deposits them with
// SolveContext.SetComponents.
//
// Implementations must be stateless across Score calls or safe for
// reuse: the registry constructs one instance per RankScorer call,
// but Engine.RankWith may be handed a long-lived instance.
type Scorer interface {
	// Name returns the scorer's registry name.
	Name() string
	// Score computes the importance vector for the context's network.
	Score(ctx *SolveContext) ([]float64, error)
}

// ScorerOptions is a scorer's option bag: named numeric knobs
// supplied at construction, so every scorer is configurable through
// one uniform surface (-scorer-opt flags, snapshot metadata, the
// leaderboard). A nil bag selects every default.
type ScorerOptions map[string]float64

// Get returns the value for key, or def when the bag is nil or the
// key is absent.
func (o ScorerOptions) Get(key string, def float64) float64 {
	if v, ok := o[key]; ok {
		return v
	}
	return def
}

// Clone returns a copy of the bag; nil stays nil.
func (o ScorerOptions) Clone() ScorerOptions {
	if o == nil {
		return nil
	}
	c := make(ScorerOptions, len(o))
	for k, v := range o {
		c[k] = v
	}
	return c
}

// option binds one option-bag key to the scorer field it sets, the
// default an absent key leaves there, and its range: a unit option (a
// damping factor, a coupling) lies in the open interval (0, 1), any
// other at or above 0.
type option struct {
	key  string
	dst  *float64
	def  float64
	unit bool
}

// read sets every field from the bag, the default where the key is
// absent. A key outside the set — a typo in a -scorer-opt flag — a NaN
// or a value out of its range fails construction.
func (o ScorerOptions) read(scorer string, fields ...option) error {
	known := make([]string, len(fields))
	for i, f := range fields {
		known[i] = f.key
	}
	for k := range o {
		if !slices.Contains(known, k) {
			return fmt.Errorf("%w: scorer %q has no option %q (known: %v)", ErrBadOptions, scorer, k, known)
		}
	}
	for _, f := range fields {
		v := o.Get(f.key, f.def)
		switch {
		case math.IsNaN(v):
			return fmt.Errorf("%w: %s %s is NaN", ErrBadOptions, scorer, f.key)
		case f.unit && (v <= 0 || v >= 1):
			return fmt.Errorf("%w: %s %s %v, want (0, 1)", ErrBadOptions, scorer, f.key, v)
		case v < 0:
			return fmt.Errorf("%w: %s %s %v, want >= 0", ErrBadOptions, scorer, f.key, v)
		}
		*f.dst = v
	}
	return nil
}

// ScorerFactory constructs a scorer from its option bag, validating
// option names and ranges.
type ScorerFactory func(opts ScorerOptions) (Scorer, error)

// fixed is the factory of a scorer that takes no options.
func fixed(s Scorer) ScorerFactory {
	return func(o ScorerOptions) (Scorer, error) {
		if err := o.read(s.Name()); err != nil {
			return nil, err
		}
		return s, nil
	}
}

type scorerEntry struct {
	doc     string
	factory ScorerFactory
}

// scorerRegistry maps scorer names to factories. It is populated from
// package init functions and read-only afterwards, so no lock.
var scorerRegistry = map[string]scorerEntry{}

// RegisterScorer adds a scorer factory under name with a one-line
// description. It is intended for package init time and panics on a
// duplicate or empty name — both are programming errors.
func RegisterScorer(name, doc string, factory ScorerFactory) {
	if name == "" || factory == nil {
		panic("core: RegisterScorer with empty name or nil factory")
	}
	if _, dup := scorerRegistry[name]; dup {
		panic("core: duplicate scorer " + name)
	}
	scorerRegistry[name] = scorerEntry{doc: doc, factory: factory}
}

// NewScorer constructs the named scorer with the given option bag.
func NewScorer(name string, opts ScorerOptions) (Scorer, error) {
	e, ok := scorerRegistry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownScorer, name, ScorerNames())
	}
	return e.factory(opts)
}

// ScorerNames returns every registered scorer name, DefaultScorer
// first and the rest sorted — the order CLIs and the leaderboard
// present them in.
func ScorerNames() []string {
	names := make([]string, 0, len(scorerRegistry))
	for name := range scorerRegistry {
		if name != DefaultScorer {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if _, ok := scorerRegistry[DefaultScorer]; ok {
		names = append([]string{DefaultScorer}, names...)
	}
	return names
}

// ScorerDoc returns the one-line description a scorer registered
// with, and whether the name is registered.
func ScorerDoc(name string) (string, bool) {
	e, ok := scorerRegistry[name]
	return e.doc, ok
}

// SolveContext is the substrate a Scorer runs against: the network
// and its solver-space projection, the engine's cached transition
// operators and warm-start vectors, the solve's worker pool, and the
// validated options with trace hooks. One context serves one Score
// call; scorers must not retain it.
//
// Warm-cache keys are namespaced per scorer name, so two scorers
// sharing an engine (the leaderboard) never warm-start from each
// other's fixed points.
type SolveContext struct {
	eng    *Engine
	pool   *sparse.Pool
	opts   Options
	scorer string
	comps  *Scores
}

// Options returns the effective, validated rank options.
func (ctx *SolveContext) Options() Options { return ctx.opts }

// Network returns the wrapped network in original article order.
func (ctx *SolveContext) Network() *hetnet.Network { return ctx.eng.net }

// View returns the solver-order (chronological) projection of the
// network. Iterative stages should run over it and unmap results with
// Restore.
func (ctx *SolveContext) View() *hetnet.SolverView { return ctx.eng.view() }

// Pool returns the solve's worker pool, sized per Options.Workers.
func (ctx *SolveContext) Pool() *sparse.Pool { return ctx.pool }

// Perm returns the solver-space permutation.
func (ctx *SolveContext) Perm() *sparse.Permutation { return ctx.eng.view().Perm() }

// NumArticles returns the article count.
func (ctx *SolveContext) NumArticles() int { return ctx.eng.net.NumArticles() }

// CitationTransition returns the engine's cached citation transition
// operator (solver space).
func (ctx *SolveContext) CitationTransition() *sparse.Transition {
	return ctx.eng.view().CitationTransition().WithPool(ctx.pool)
}

// GapTransition returns the gap view of the citation transition, its
// edges weighted by exp(-rho·gap), cached per distinct rho (solver
// space).
func (ctx *SolveContext) GapTransition(rho float64) (*sparse.Transition, error) {
	return ctx.eng.gapTransition(rho, ctx.pool)
}

// IterFor returns the iteration options for one solver phase, with
// the Options.Trace hook (if any) bound to the phase name. A hook
// installed directly on Iter.OnIteration is kept when Trace is unset.
func (ctx *SolveContext) IterFor(phase string) sparse.IterOptions {
	it, trace := ctx.opts.Iter, ctx.opts.Trace
	if trace != nil {
		it.OnIteration = func(ev sparse.IterEvent) {
			trace(TraceEvent{Phase: phase, Iteration: ev.Iteration, Residual: ev.Residual, Elapsed: ev.Elapsed})
		}
	}
	return it
}

// Restore maps a solver-space vector back to original article order.
func (ctx *SolveContext) Restore(solverVec []float64) []float64 {
	return ctx.Perm().Restored(solverVec)
}

// WarmStart selects the starting vector for an iterative stage: an
// explicit seed wins over the fixed point cached under the
// scorer-namespaced key (already in solver space); nil means cold
// start. An explicit seed arrives in original article order: it is
// checked against the network size, L1-normalised on a copy and mapped
// into solver space. A seed with no mass — all zeros, as Resized
// produces for an all-new corpus — degrades to a cold start.
func (ctx *SolveContext) WarmStart(key string, explicit []float64) ([]float64, error) {
	if explicit == nil {
		return ctx.eng.warm[ctx.warmKey(key)], nil
	}
	if n := ctx.NumArticles(); len(explicit) != n {
		return nil, fmt.Errorf("%w: initial vector length %d, want %d", ErrBadOptions, len(explicit), n)
	}
	v := sparse.Clone(explicit)
	if s := sparse.Normalize1(v); s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, nil
	}
	return ctx.Perm().Applied(v), nil
}

// KeepWarm stores a solver-space fixed point under the
// scorer-namespaced cache key, warm-starting the next solve.
func (ctx *SolveContext) KeepWarm(key string, solverVec []float64) {
	ctx.eng.warm[ctx.warmKey(key)] = solverVec
}

func (ctx *SolveContext) warmKey(key string) string { return ctx.scorer + "/" + key }

// fixedPointKey is the warm-cache key of a single-stage scorer.
const fixedPointKey = "fixed-point"

// iterate runs a step function to its fixed point from the vector the
// scorer cached, or from init when none is, and caches the result. It
// traces under the scorer's name. It serves hits, the one iterative
// scorer that is not a walk (every walk runs on solveWalk).
func (ctx *SolveContext) iterate(init []float64, step sparse.StepFunc) ([]float64, sparse.IterStats, error) {
	if warm := ctx.eng.warm[ctx.warmKey(fixedPointKey)]; warm != nil {
		init = warm
	}
	x, stats, err := sparse.FixedPoint(init, step, ctx.IterFor(ctx.scorer))
	if err != nil {
		return nil, stats, fmt.Errorf("core: %s: %w", ctx.scorer, err)
	}
	ctx.KeepWarm(fixedPointKey, x)
	return x, stats, nil
}

// result finishes a single-stage scorer: it records the stage's stats
// on the result and returns the solver-space vector in original
// article order.
func (ctx *SolveContext) result(solverVec []float64, stats sparse.IterStats) []float64 {
	ctx.SetComponents(&Scores{PrestigeStats: stats})
	return ctx.Restore(solverVec)
}

// SetComponents deposits component signals and solver statistics on
// the result. The engine fills Importance, Scorer and Pool itself, and
// the sweep fields (BackEdgeFraction, Shards) whenever the stats show
// an iterative stage; any other field the scorer leaves zero stays
// zero.
func (ctx *SolveContext) SetComponents(sc *Scores) { ctx.comps = sc }

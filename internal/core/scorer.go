package core

import (
	"errors"
	"fmt"
	"math"
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

// checkKeys errors on any key outside the known set — a typo in a
// -scorer-opt flag should fail construction, not be ignored.
func (o ScorerOptions) checkKeys(scorer string, known ...string) error {
	for k := range o {
		ok := false
		for _, want := range known {
			if k == want {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("%w: scorer %q has no option %q (known: %v)", ErrBadOptions, scorer, k, known)
		}
	}
	return nil
}

// option binds one option-bag key to the scorer field it sets and the
// default an absent key leaves there.
type option struct {
	key string
	dst *float64
	def float64
}

// read sets every field from the bag, the default where the key is
// absent, after rejecting keys outside the set and NaN values.
func (o ScorerOptions) read(scorer string, fields ...option) error {
	known := make([]string, len(fields))
	for i, f := range fields {
		known[i] = f.key
	}
	if err := o.checkKeys(scorer, known...); err != nil {
		return err
	}
	for _, f := range fields {
		if *f.dst = o.Get(f.key, f.def); math.IsNaN(*f.dst) {
			return fmt.Errorf("%w: %s %s is NaN", ErrBadOptions, scorer, f.key)
		}
	}
	return nil
}

// checkUnit rejects a probability-like option (a damping factor, a
// coupling) outside the open interval (0, 1).
func checkUnit(scorer, key string, v float64) error {
	if v <= 0 || v >= 1 {
		return fmt.Errorf("%w: %s %s %v, want (0, 1)", ErrBadOptions, scorer, key, v)
	}
	return nil
}

// ScorerFactory constructs a scorer from its option bag, validating
// option names and ranges.
type ScorerFactory func(opts ScorerOptions) (Scorer, error)

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
	return ctx.eng.citationTransition(ctx.pool)
}

// GapTransition returns the citation transition reweighted by
// exp(-rho·gap), cached per distinct rho (solver space).
func (ctx *SolveContext) GapTransition(rho float64) (*sparse.Transition, error) {
	return ctx.eng.gapTransition(rho, ctx.pool)
}

// IterFor returns the iteration options for one solver phase, with
// the Options.Trace hook (if any) bound to the phase name.
func (ctx *SolveContext) IterFor(phase string) sparse.IterOptions {
	return ctx.opts.iterFor(phase)
}

// Restore maps a solver-space vector back to original article order.
func (ctx *SolveContext) Restore(solverVec []float64) []float64 {
	return ctx.Perm().Restored(solverVec)
}

// WarmStart selects the starting vector for an iterative stage under
// the scorer-namespaced cache key: an explicit seed (original order,
// validated, L1-normalised and mapped to solver space) wins over the
// engine's cached previous solution; nil means cold start.
func (ctx *SolveContext) WarmStart(key string, explicit []float64) ([]float64, error) {
	return warmVector(explicit, ctx.eng.warm[ctx.warmKey(key)], ctx.NumArticles(), ctx.Perm())
}

// KeepWarm stores a solver-space fixed point under the
// scorer-namespaced cache key, warm-starting the next solve.
func (ctx *SolveContext) KeepWarm(key string, solverVec []float64) {
	ctx.eng.warm[ctx.warmKey(key)] = solverVec
}

func (ctx *SolveContext) warmKey(key string) string { return ctx.scorer + "/" + key }

// cached returns the solver-space fixed point the scorer last kept
// under key, or nil.
func (ctx *SolveContext) cached(key string) []float64 { return ctx.eng.warm[ctx.warmKey(key)] }

// walk solves the damped walk over t (solver space, sweeping as t
// does) from the fixed point cached under key, or from the teleport
// when none is, and caches the result. It traces under the scorer's
// name and extrapolates at Options.AitkenEvery.
func (ctx *SolveContext) walk(key string, t *sparse.Transition, damping float64, teleport []float64) ([]float64, sparse.IterStats, error) {
	init := ctx.cached(key)
	if init == nil {
		init = teleport
	}
	it := ctx.IterFor(ctx.scorer)
	it.AitkenEvery = ctx.opts.AitkenEvery
	x, stats, err := sparse.DampedWalkFrom(t, damping, teleport, init, it)
	if err != nil {
		return nil, stats, fmt.Errorf("core: %s %s: %w", ctx.scorer, key, err)
	}
	ctx.KeepWarm(key, x)
	return x, stats, nil
}

// fixedPointKey is the warm-cache key of a single-stage scorer's fixed
// point.
const fixedPointKey = "fixed-point"

// iterate runs a Jacobi step function to its fixed point from the
// vector the scorer cached, or from init when none is, and caches the
// result. It traces under the scorer's name.
func (ctx *SolveContext) iterate(init []float64, step sparse.StepFunc) ([]float64, sparse.IterStats, error) {
	if warm := ctx.cached(fixedPointKey); warm != nil {
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

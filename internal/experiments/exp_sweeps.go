package experiments

import (
	"fmt"
	"math/rand"

	"scholarrank/internal/core"
	"scholarrank/internal/eval"
)

func init() {
	register(Experiment{ID: "F1", Title: "Accuracy vs time-decay rate", Run: runDecaySweep})
	register(Experiment{ID: "F2", Title: "Accuracy vs ensemble mixing", Run: runEnsembleSweep})
}

// sweepAccuracy ranks with the given options (through a shared
// engine, so the sweep reuses the cached substrate) and returns
// pairwise accuracy against future citations.
func sweepAccuracy(ctx *evalContext, eng *core.Engine, o core.Options, seed int64) (float64, error) {
	sc, err := eng.Rank(o)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(3000 + seed))
	acc, _, err := eval.PairwiseAccuracy(sc.Importance, ctx.future, rng, pairSamples)
	return acc, err
}

// runDecaySweep sweeps the recency decay rate. Expected shape: an
// inverted U — rho = 0 degrades to static ranking (recency-blind),
// very large rho forgets all prestige.
func runDecaySweep(opts Options) ([]*Table, error) {
	ctx, err := prepare(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F1",
		Title:   "Pairwise accuracy vs recency decay rho (medium corpus)",
		Columns: []string{"rho", "acc-future"},
		Notes:   []string{"gap decay held at default; rho applies to teleport and popularity"},
	}
	eng := core.NewEngine(ctx.net)
	for _, rho := range []float64{0, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4} {
		o := evalOptions(opts.Workers)
		o.RhoRecency = rho
		acc, err := sweepAccuracy(ctx, eng, o, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: rho=%v: %w", rho, err)
		}
		t.AddRow(rho, acc)
	}
	return []*Table{t}, nil
}

// runEnsembleSweep sweeps the prestige-vs-rest balance under the
// arithmetic ensemble and compares the three ensemble kinds at equal
// weights.
func runEnsembleSweep(opts Options) ([]*Table, error) {
	ctx, err := prepare(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	weightTable := &Table{
		ID:      "F2",
		Title:   "Accuracy vs prestige weight (arithmetic ensemble, medium corpus)",
		Columns: []string{"w-prestige", "acc-future"},
		Notes:   []string{"remaining weight split equally between popularity and hetero"},
	}
	eng := core.NewEngine(ctx.net)
	for _, wp := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		o := evalOptions(opts.Workers)
		o.Ensemble = core.Arithmetic
		o.WPrestige = wp
		o.WPopularity = (1 - wp) / 2
		o.WHetero = (1 - wp) / 2
		acc, err := sweepAccuracy(ctx, eng, o, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: wp=%v: %w", wp, err)
		}
		weightTable.AddRow(wp, acc)
	}

	kindTable := &Table{
		ID:      "F2b",
		Title:   "Accuracy by ensemble kind (equal weights, medium corpus)",
		Columns: []string{"ensemble", "acc-future"},
	}
	for _, kind := range []core.EnsembleKind{core.Harmonic, core.Geometric, core.Arithmetic} {
		o := evalOptions(opts.Workers)
		o.Ensemble = kind
		acc, err := sweepAccuracy(ctx, eng, o, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: ensemble %v: %w", kind, err)
		}
		kindTable.AddRow(kind.String(), acc)
	}
	return []*Table{weightTable, kindTable}, nil
}

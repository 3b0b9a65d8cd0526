package experiments

import (
	"fmt"

	"scholarrank/internal/core"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

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

// method is one compared algorithm: its table label and the registered
// scorer that computes it.
type method struct {
	label, scorer string
}

// methods is every compared algorithm in presentation order:
// count-based baselines, flat link analysis, time-aware link analysis,
// heterogeneous baselines, then QISA-Rank.
var methods = []method{
	{"CiteCount", core.ScorerCiteCount},
	{"YearNorm", core.ScorerYearNorm},
	{"AgeNorm", core.ScorerAgeNorm},
	{"PageRank", core.ScorerPageRank},
	{"HITS", core.ScorerHITS},
	{"SceasRank", core.ScorerSCEAS},
	{"TimedPR", core.ScorerTimedPR},
	{"CiteRank", core.ScorerCiteRank},
	{"FutureRank", core.ScorerFutureRank},
	{"CoRank", core.ScorerCoRank},
	{"P-Rank", core.ScorerPRank},
	{"EWPR", core.ScorerEWPR},
	{QISAMethodName, core.DefaultScorer},
}

// scores ranks net with the method's scorer under the shared budget.
func (m method) scores(net *hetnet.Network, workers int) ([]float64, error) {
	sc, err := core.RankScorer(net, m.scorer, nil, evalOptions(workers))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", m.label, err)
	}
	return sc.Importance, nil
}

// QISAMethodName is the display name of the core algorithm, used by
// assertions in tests and by EXPERIMENTS.md tooling.
const QISAMethodName = "QISA-Rank"

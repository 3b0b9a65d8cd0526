package experiments

import (
	"fmt"
	"math/rand"

	"scholarrank/internal/core"
	"scholarrank/internal/eval"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
)

func init() {
	register(Experiment{ID: "F9", Title: "Field-normalisation on a multi-field corpus", Run: runFields})
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

// runFields evaluates ranking on a corpus with research fields of
// unequal citation density. Expected shapes: (a) field-normalised
// counts beat raw counts on pairwise accuracy (but not necessarily
// year-normalised counts — future-citation ground truth is itself
// field-biased, so full normalisation trades a little raw accuracy
// for fairness); (b) field-blind count methods over-fill the global
// top 100 with articles from the densest field, while
// field-normalised counts remove that bias.
func runFields(opts Options) ([]*Table, error) {
	n, err := presetArticles(SizeMedium, opts.Quick)
	if err != nil {
		return nil, err
	}
	cfg := gen.NewDefaultConfig(n)
	cfg.Seed += 500 + opts.Seed
	cfg.Fields = fieldCount
	cfg.FieldBias = fieldBias
	cfg.FieldDensitySpread = fieldDensity
	c, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	h, err := gen.SplitByYear(c.Store, holdoutCutoff(c))
	if err != nil {
		return nil, err
	}
	net := hetnet.Build(h.Train)
	// Map field labels onto the train ids.
	fields := make([]int, len(h.FullID))
	for i, id := range h.FullID {
		fields[i] = c.Field[id]
	}
	// The densest field is the one with the highest reference
	// multiplier (the last one) — verify empirically from citations.
	densest := densestField(net, fields)

	// FieldNorm needs the field labels, so it is the one contender that
	// is not a registered scorer.
	fieldNorm, err := rank.GroupNormCiteCount(net.Citations, fields, net.Years)
	if err != nil {
		return nil, err
	}
	type contender struct {
		name   string
		scores []float64
	}
	var contenders []contender
	for _, m := range []method{{"CiteCount", core.ScorerCiteCount}, {"YearNorm", core.ScorerYearNorm},
		{"FieldNorm", ""}, {QISAMethodName, core.DefaultScorer}} {
		scores := fieldNorm
		if m.scorer != "" {
			if scores, err = m.scores(net, opts.Workers); err != nil {
				return nil, err
			}
		}
		contenders = append(contenders, contender{m.label, scores})
	}

	// Field share of all articles, for reference.
	var densestShare float64
	for _, f := range fields {
		if f == densest {
			densestShare++
		}
	}
	densestShare /= float64(len(fields))

	t := &Table{
		ID:      "F9",
		Title:   fmt.Sprintf("Multi-field corpus (%d fields, ~%gx density spread)", fieldCount, (1+fieldDensity)*(1+fieldDensity)),
		Columns: []string{"method", "acc-future", "ndcg@50", "top100-densest-share"},
		Notes: []string{
			fmt.Sprintf("densest field holds %.0f%% of articles; an unbiased top-100 matches that share", densestShare*100),
			"field-blind citation counts over-rank the dense field; field normalisation corrects it",
		},
	}
	for _, cd := range contenders {
		rng := rand.New(rand.NewSource(9500 + opts.Seed))
		acc, _, err := eval.PairwiseAccuracy(cd.scores, h.FutureCites, rng, pairSamples)
		if err != nil {
			return nil, err
		}
		ndcg, err := eval.NDCG(cd.scores, h.FutureCites, 50)
		if err != nil {
			return nil, err
		}
		var fromDensest int
		for _, i := range rank.TopK(cd.scores, 100) {
			if fields[i] == densest {
				fromDensest++
			}
		}
		t.AddRow(cd.name, acc, ndcg, float64(fromDensest)/100)
	}
	return []*Table{t}, nil
}

// densestField returns the field with the highest citations received
// per article.
func densestField(net *hetnet.Network, fields []int) int {
	in := net.Citations.InDegrees()
	sums := map[int]float64{}
	counts := map[int]int{}
	for i, f := range fields {
		sums[f] += float64(in[i])
		counts[f]++
	}
	best, bestRate := 0, -1.0
	for f, s := range sums {
		rate := s / float64(counts[f])
		if rate > bestRate {
			best, bestRate = f, rate
		}
	}
	return best
}

package experiments

import (
	"fmt"
	"math/rand"

	"scholarrank/internal/core"
	"scholarrank/internal/eval"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
)

func init() {
	register(Experiment{ID: "T6", Title: "Author and venue ranking vs latent oracle", Run: runEntities})
}

// entityMinArticles restricts the author evaluation to authors with
// at least this many articles: talent is statistically invisible in a
// one-article sample, and real evaluations (h-index studies, award
// committees) likewise consider productive authors only.
const entityMinArticles = 5

// runEntities evaluates the derived author and venue rankings against
// the generator's planted ground truth (author talent and venue
// prestige) — an oracle comparison impossible on real data, and the
// extension-level result the paper family reports for ranking
// entities other than articles.
func runEntities(opts Options) ([]*Table, error) {
	c, err := BuildCorpus(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	net := hetnet.Build(c.Store)
	eng := core.NewEngine(net)
	o := evalOptions(opts.Workers)
	sc, err := eng.Rank(o)
	if err != nil {
		return nil, err
	}
	cc, err := eng.RankScorer(core.ScorerCiteCount, nil, o)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "T6",
		Title:   "Entity ranking accuracy vs planted talent/prestige (medium corpus)",
		Columns: []string{"entities", "article-signal", "aggregate", "pairwise-acc", "spearman"},
		Notes: []string{
			"ground truth: the generator's latent author talent and venue prestige",
			"shrunk-mean: entity mean pulled toward the global mean by 3 pseudo-articles",
		},
	}

	type entityCase struct {
		entities string
		signal   string
		scores   []float64
		truth    []float64
	}
	cases := []entityCase{
		{"authors", "QISA-Rank", sc.Importance, c.AuthorTalent},
		{"authors", "CiteCount", cc.Importance, c.AuthorTalent},
		{"venues", "QISA-Rank", sc.Importance, c.VenuePrestige},
		{"venues", "CiteCount", cc.Importance, c.VenuePrestige},
	}
	// Authors are evaluated over the productive subset only (see
	// entityMinArticles): talent cannot be recovered from one-article
	// samples on any method.
	productive := make([]int, 0, net.NumAuthors())
	for a := 0; a < net.NumAuthors(); a++ {
		if len(net.AuthorArticles(int32(a))) >= entityMinArticles {
			productive = append(productive, a)
		}
	}
	filterAuthors := func(xs []float64) []float64 {
		out := make([]float64, len(productive))
		for i, a := range productive {
			out[i] = xs[a]
		}
		return out
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"author rows restricted to the %d authors with >= %d articles", len(productive), entityMinArticles))

	// CoRank produces author scores directly from the coupled walk,
	// without an aggregation step — the mutual-reinforcement
	// comparison point.
	cr, err := eng.RankScorer(core.ScorerCoRank, nil, o)
	if err != nil {
		return nil, fmt.Errorf("experiments: entities corank: %w", err)
	}
	crRng := rand.New(rand.NewSource(6000 + opts.Seed))
	crAcc, _, err := eval.PairwiseAccuracy(filterAuthors(cr.Authors), filterAuthors(c.AuthorTalent), crRng, pairSamples)
	if err != nil {
		return nil, err
	}
	crRho, err := eval.Spearman(filterAuthors(cr.Authors), filterAuthors(c.AuthorTalent))
	if err != nil {
		return nil, err
	}
	t.AddRow("authors", "CoRank", "direct", crAcc, crRho)

	for _, ec := range cases {
		for _, agg := range []rank.EntityAggregate{rank.AggSum, rank.AggMean, rank.AggShrunkMean} {
			var scores []float64
			var err error
			if ec.entities == "authors" {
				scores, err = rank.AuthorRank(net, ec.scores, rank.EntityRankOptions{Aggregate: agg})
			} else {
				scores, err = rank.VenueRank(net, ec.scores, rank.EntityRankOptions{Aggregate: agg})
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: entities %s/%s: %w", ec.entities, agg, err)
			}
			truth := ec.truth
			if ec.entities == "authors" {
				scores = filterAuthors(scores)
				truth = filterAuthors(truth)
			}
			rng := rand.New(rand.NewSource(6000 + opts.Seed))
			acc, _, err := eval.PairwiseAccuracy(scores, truth, rng, pairSamples)
			if err != nil {
				return nil, err
			}
			rho, err := eval.Spearman(scores, truth)
			if err != nil {
				return nil, err
			}
			t.AddRow(ec.entities, ec.signal, agg.String(), acc, rho)
		}
	}
	return []*Table{t}, nil
}

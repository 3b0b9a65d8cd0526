package experiments

import (
	"fmt"
	"math/rand"

	"scholarrank/internal/eval"
	"scholarrank/internal/gen"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
)

func init() {
	register(Experiment{ID: "T2", Title: "Overall effectiveness vs future-citation ground truth", Run: runEffectiveness})
	register(Experiment{ID: "T3", Title: "Recall of high-quality (award) articles", Run: runAwardRecall})
}

// pairSamples is the pairwise-accuracy sampling budget per method.
const pairSamples = 200_000

// evalContext bundles a prepared holdout evaluation: the visible
// network plus the two ground-truth vectors on train ids.
type evalContext struct {
	net     *hetnet.Network
	future  []float64 // future citations (impact ground truth)
	quality []float64 // latent quality (oracle ground truth)
}

func prepare(size string, opts Options) (*evalContext, error) {
	c, err := BuildCorpus(size, opts)
	if err != nil {
		return nil, err
	}
	h, err := gen.SplitByYear(c.Store, holdoutCutoff(c))
	if err != nil {
		return nil, err
	}
	return &evalContext{
		net:     hetnet.Build(h.Train),
		future:  h.FutureCites,
		quality: h.MapToTrain(c.Quality),
	}, nil
}

// runEffectiveness reproduces the headline comparison: every method's
// pairwise ordering accuracy and NDCG@50 against future citations,
// on the small and medium corpora.
func runEffectiveness(opts Options) ([]*Table, error) {
	t := &Table{
		ID:    "T2",
		Title: "Effectiveness vs future citations (pairwise accuracy / NDCG@50)",
		Columns: []string{
			"method",
			"small:acc", "small:ndcg@50",
			"medium:acc", "medium:ndcg@50",
		},
		Notes: []string{
			fmt.Sprintf("accuracy: sampled pairwise ordering agreement (%d pairs) with future-citation counts", pairSamples),
			"holdout: rank on the first 80% of the timeline, score on citations arriving after",
		},
	}
	ctxs := make(map[string]*evalContext, 2)
	for _, size := range []string{SizeSmall, SizeMedium} {
		ctx, err := prepare(size, opts)
		if err != nil {
			return nil, err
		}
		ctxs[size] = ctx
	}
	for _, m := range methods {
		row := []any{m.label}
		for _, size := range []string{SizeSmall, SizeMedium} {
			ctx := ctxs[size]
			scores, err := m.scores(ctx.net, opts.Workers)
			if err != nil {
				return nil, fmt.Errorf("%w (%s corpus)", err, size)
			}
			rng := rand.New(rand.NewSource(1000 + opts.Seed))
			acc, _, err := eval.PairwiseAccuracy(scores, ctx.future, rng, pairSamples)
			if err != nil {
				return nil, err
			}
			ndcg, err := eval.NDCG(scores, ctx.future, 50)
			if err != nil {
				return nil, err
			}
			row = append(row, acc, ndcg)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// runAwardRecall reproduces the expert-ground-truth table: how much
// of the top-quality "award set" each method surfaces in its top k.
// The award set is the top 0.5% of train articles by latent quality —
// the oracle standing in for best-paper and test-of-time lists.
func runAwardRecall(opts Options) ([]*Table, error) {
	ctx, err := prepare(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	n := ctx.net.NumArticles()
	awardSize := n / 200 // 0.5%
	if awardSize < 10 {
		awardSize = 10
	}
	award := make(map[int]bool, awardSize)
	for _, i := range rank.TopK(ctx.quality, awardSize) {
		award[i] = true
	}
	ks := []int{10, 50, 100}
	t := &Table{
		ID:      "T3",
		Title:   fmt.Sprintf("Recall@k of the %d highest-quality articles (medium corpus)", awardSize),
		Columns: []string{"method", "recall@10", "recall@50", "recall@100", "avg-precision"},
		Notes: []string{
			"award set: top 0.5% by latent quality — the oracle for best-paper/test-of-time lists",
		},
	}
	for _, m := range methods {
		scores, err := m.scores(ctx.net, opts.Workers)
		if err != nil {
			return nil, err
		}
		row := []any{m.label}
		for _, k := range ks {
			row = append(row, eval.RecallAtK(scores, award, k))
		}
		row = append(row, eval.AveragePrecision(scores, award))
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

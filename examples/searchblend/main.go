// Searchblend: the motivating application — academic search.
//
// A search engine scores results by query relevance; a
// query-independent importance prior breaks ties and surfaces the
// papers worth reading. This example builds a synthetic topical query
// workload, then sweeps the blending weight
//
//	lambda·relevance + (1-lambda)·importance
//
// for two priors (QISA-Rank and raw citation counts) and prints the
// resulting retrieval quality curve. The shape to look for: an
// interior optimum (pure relevance is beaten by mixing in the prior),
// with the stronger prior giving the higher curve.
//
// Run with:
//
//	go run ./examples/searchblend
package main

import (
	"fmt"
	"log"

	"scholarrank"
)

func main() {
	log.SetFlags(0)

	cfg := scholarrank.DefaultGeneratorConfig(8000)
	cfg.Seed = 77
	gc, err := scholarrank.GenerateCorpus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Evaluate the way the paper family does: rank on the visible
	// past, score against the hidden future. Gains for a query are
	// the future citations of its topical articles.
	minY, maxY := gc.Store.YearRange()
	hold, err := scholarrank.SplitByYear(gc.Store, minY+(maxY-minY)*8/10)
	if err != nil {
		log.Fatal(err)
	}
	net := scholarrank.BuildNetwork(hold.Train)

	wopts := scholarrank.DefaultWorkloadOptions()
	wopts.Queries = 150
	queries, err := scholarrank.BuildWorkload(net, hold.FutureCites, wopts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d queries, %d relevant + %d distractors each\n\n",
		wopts.Queries, wopts.TopicSize, wopts.Distractors)

	qisa, err := scholarrank.Rank(net, scholarrank.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	cc, err := scholarrank.RankScorer(net, "citecount", nil, scholarrank.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	priors := []struct {
		name   string
		scores []float64
	}{
		{"QISA-Rank", qisa.Importance},
		{"CiteCount", cc.Importance},
	}
	fmt.Println("lambda  NDCG@10(QISA)  NDCG@10(CiteCount)")
	sweeps := make([][]scholarrank.LambdaPoint, len(priors))
	for i, p := range priors {
		_, sweep, err := scholarrank.BestBlendLambda(queries, p.scores, 10)
		if err != nil {
			log.Fatal(err)
		}
		sweeps[i] = sweep
	}
	for j := range sweeps[0] {
		fmt.Printf("%6.1f  %13.4f  %18.4f\n",
			sweeps[0][j].Lambda, sweeps[0][j].NDCG, sweeps[1][j].NDCG)
	}

	for i, p := range priors {
		best, sweep := 0.0, sweeps[i]
		bestNDCG := -1.0
		for _, pt := range sweep {
			if pt.NDCG > bestNDCG {
				bestNDCG, best = pt.NDCG, pt.Lambda
			}
		}
		pure := sweep[len(sweep)-1].NDCG // lambda = 1
		fmt.Printf("\n%s: best lambda %.1f, NDCG %.4f (pure relevance %.4f, +%.1f%%)",
			p.name, best, bestNDCG, pure, (bestNDCG-pure)/pure*100)
	}
	fmt.Println()
}

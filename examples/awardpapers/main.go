// Awardpapers: the "find tomorrow's award papers today" scenario.
//
// A synthetic corpus is generated, the timeline is cut at 80%, and
// each ranking method sees only the past. The articles that go on to
// collect the most citations in the hidden future are the "award
// papers"; the example reports how many of them each method already
// placed in its top 100.
//
// Run with:
//
//	go run ./examples/awardpapers
package main

import (
	"fmt"
	"log"

	"scholarrank"
)

func main() {
	log.SetFlags(0)

	cfg := scholarrank.DefaultGeneratorConfig(8000)
	cfg.Seed = 2024
	gc, err := scholarrank.GenerateCorpus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	minY, maxY := gc.Store.YearRange()
	cutoff := minY + (maxY-minY)*8/10
	hold, err := scholarrank.SplitByYear(gc.Store, cutoff)
	if err != nil {
		log.Fatal(err)
	}
	net := scholarrank.BuildNetwork(hold.Train)
	fmt.Printf("corpus: %d articles, visible through %d: %d articles, %d citations\n",
		gc.Store.NumArticles(), cutoff, hold.Train.NumArticles(), hold.Train.NumCitations())

	// "Award papers": top 50 by future citations.
	const awards = 50
	award := make(map[int]bool, awards)
	for _, i := range scholarrank.TopK(hold.FutureCites, awards) {
		award[i] = true
	}

	type contender struct {
		name   string
		scores []float64
	}
	var contenders []contender
	for _, c := range []struct{ name, scorer string }{
		{"CiteCount", "citecount"}, {"PageRank", "pagerank"}, {"QISA-Rank", "default"},
	} {
		sc, err := scholarrank.RankScorer(net, c.scorer, nil, scholarrank.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		contenders = append(contenders, contender{c.name, sc.Importance})
	}

	fmt.Printf("\n%-10s  %-9s  %-9s\n", "method", "recall@100", "pairwise-acc")
	for _, c := range contenders {
		recall := scholarrank.RecallAtK(c.scores, award, 100)
		acc, _, err := scholarrank.PairwiseAccuracy(c.scores, hold.FutureCites, nil, 100_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s  %9.3f  %12.3f\n", c.name, recall, acc)
	}

	fmt.Println("\nfuture award papers QISA-Rank already surfaces in its top 20:")
	qisa := contenders[len(contenders)-1].scores
	for pos, i := range scholarrank.TopK(qisa, 20) {
		if !award[i] {
			continue
		}
		a := hold.Train.Article(scholarrank.ArticleID(i))
		fmt.Printf("  rank %2d: %s (%d) — %.0f future citations\n",
			pos+1, a.Key, a.Year, hold.FutureCites[i])
	}
}

// Risingstar: replay history and watch the ranking react.
//
// The corpus is revealed one cutoff year at a time, the ranking is
// recomputed on each snapshot, and the example tracks how quickly
// each method surfaces a "rising star" — an article that ends up
// among the corpus's most-cited but starts with nothing. The earlier
// a method moves it into the top percentiles, the better the method
// handles the cold-start regime the paper targets.
//
// Run with:
//
//	go run ./examples/risingstar
package main

import (
	"fmt"
	"log"

	"scholarrank"
)

func main() {
	log.SetFlags(0)

	cfg := scholarrank.DefaultGeneratorConfig(6000)
	cfg.Seed = 404
	gc, err := scholarrank.GenerateCorpus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	minY, maxY := gc.Store.YearRange()

	// The rising star: the most-cited article published in the last
	// third of the timeline.
	net := scholarrank.BuildNetwork(gc.Store)
	in := net.Citations.InDegrees()
	cutYoung := minY + (maxY-minY)*2/3
	star := -1
	for i, d := range in {
		if gc.Store.Article(scholarrank.ArticleID(i)).Year >= cutYoung {
			if star < 0 || d > in[star] {
				star = i
			}
		}
	}
	starKey := gc.Store.Article(scholarrank.ArticleID(star)).Key
	starYear := gc.Store.Article(scholarrank.ArticleID(star)).Year
	fmt.Printf("rising star: %s (published %d, ends with %d citations)\n\n", starKey, starYear, in[star])

	// The library does the replay: RankHistory re-ranks the corpus at
	// each cutoff and returns the article's trajectory.
	var cutoffs []int
	for cutoff := starYear; cutoff <= maxY; cutoff += 2 {
		cutoffs = append(cutoffs, cutoff)
	}
	hist, err := scholarrank.RankHistory(gc.Store, []string{starKey}, cutoffs, scholarrank.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Citation-count comparison per snapshot, computed alongside.
	fmt.Println("snapshot  citations-so-far  pct(QISA)  pct(CiteCount)")
	for _, sn := range hist[0].Snapshots {
		hold, err := scholarrank.SplitByYear(gc.Store, sn.Cutoff)
		if err != nil {
			log.Fatal(err)
		}
		id, _ := hold.Train.ArticleByKey(starKey)
		snapNet := scholarrank.BuildNetwork(hold.Train)
		cc, err := scholarrank.RankScorer(snapNet, "citecount", nil, scholarrank.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		ccPct := scholarrank.Percentiles(cc.Importance)[id]
		fmt.Printf("%8d  %16d  %9.3f  %14.3f\n", sn.Cutoff, sn.Citations, sn.Percentile, ccPct)
	}
	fmt.Println("\npct = rank percentile at that snapshot (1.0 = top of the corpus).")
	fmt.Println("QISA-Rank surfaces the article while its citation count is still tiny.")
}

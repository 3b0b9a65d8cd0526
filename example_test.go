package scholarrank_test

import (
	"fmt"
	"log"

	"scholarrank"
)

// buildExampleStore assembles a 3-article corpus used by the runnable
// documentation examples.
func buildExampleStore() *scholarrank.Store {
	s := scholarrank.NewBuilder()
	author, err := s.InternAuthor("knuth", "D. Knuth")
	if err != nil {
		log.Fatal(err)
	}
	venue, err := s.InternVenue("jacm", "JACM")
	if err != nil {
		log.Fatal(err)
	}
	classic, err := s.AddArticle(scholarrank.ArticleMeta{
		Key: "classic", Title: "The Classic", Year: 2000,
		Venue: venue, Authors: []scholarrank.AuthorID{author},
	})
	if err != nil {
		log.Fatal(err)
	}
	followA, err := s.AddArticle(scholarrank.ArticleMeta{
		Key: "follow-a", Title: "Follow-up A", Year: 2008, Venue: venue,
	})
	if err != nil {
		log.Fatal(err)
	}
	followB, err := s.AddArticle(scholarrank.ArticleMeta{
		Key: "follow-b", Title: "Follow-up B", Year: 2012, Venue: venue,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.AddCitation(followA, classic); err != nil {
		log.Fatal(err)
	}
	if err := s.AddCitation(followB, classic); err != nil {
		log.Fatal(err)
	}
	return s.Freeze()
}

// The basic pipeline: build a corpus, assemble the network, rank, and
// read off the most important article.
func ExampleRank() {
	store := buildExampleStore()
	net := scholarrank.BuildNetwork(store)
	// The default time constants target corpus-scale ranking; a
	// three-article example softens them so the two-decade-old
	// classic stays comparable with its follow-ups.
	opts := scholarrank.DefaultOptions()
	opts.RhoRecency = 0.1
	opts.RhoFade = 0
	scores, err := scholarrank.Rank(net, opts)
	if err != nil {
		log.Fatal(err)
	}
	top := scholarrank.TopK(scores.Importance, 1)[0]
	fmt.Println(store.Article(scholarrank.ArticleID(top)).Title)
	// Output: The Classic
}

// Every baseline is a registered scorer over the same network; here
// citation count confirms the citation-graph structure.
func ExampleRankScorer() {
	net := scholarrank.BuildNetwork(buildExampleStore())
	res, err := scholarrank.RankScorer(net, "citecount", nil, scholarrank.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Importance)
	// Output: [2 0 0]
}

// TopK returns indices in descending score order with deterministic
// tie-breaks.
func ExampleTopK() {
	scores := []float64{0.3, 0.9, 0.9, 0.1}
	fmt.Println(scholarrank.TopK(scores, 3))
	// Output: [1 2 0]
}

// KendallTau measures rank agreement between two score vectors.
func ExampleKendallTau() {
	a := []float64{1, 2, 3}
	b := []float64{1, 3, 2}
	tau, err := scholarrank.KendallTau(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.3f\n", tau)
	// Output: 0.333
}

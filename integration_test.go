package scholarrank_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"scholarrank"
)

// TestEndToEndPipeline drives the full production pipeline through
// the public API: generate → snapshot to binary → reload → rank →
// holdout evaluation → entity rankings, asserting cross-stage
// consistency at every step.
func TestEndToEndPipeline(t *testing.T) {
	cfg := scholarrank.DefaultGeneratorConfig(2500)
	cfg.Seed = 777
	gc, err := scholarrank.GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// SCORP round trip must preserve the ranking exactly.
	var buf bytes.Buffer
	if err := scholarrank.WriteSCORP(&buf, gc.Store); err != nil {
		t.Fatal(err)
	}
	reloaded, err := scholarrank.ReadSCORP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	netA := scholarrank.BuildNetwork(gc.Store)
	netB := scholarrank.BuildNetwork(reloaded)
	scoresA, err := scholarrank.Rank(netA, scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	scoresB, err := scholarrank.Rank(netB, scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range scoresA.Importance {
		if scoresA.Importance[i] != scoresB.Importance[i] {
			t.Fatalf("snapshot changed ranking at %d: %v vs %v",
				i, scoresA.Importance[i], scoresB.Importance[i])
		}
	}

	// Holdout evaluation: the ranking computed on the past must beat
	// a coin flip on the future, and beat raw citation counts.
	minY, maxY := gc.Store.YearRange()
	hold, err := scholarrank.SplitByYear(gc.Store, minY+(maxY-minY)*8/10)
	if err != nil {
		t.Fatal(err)
	}
	trainNet := scholarrank.BuildNetwork(hold.Train)
	trainScores, err := scholarrank.Rank(trainNet, scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	qisaAcc, _, err := scholarrank.PairwiseAccuracy(trainScores.Importance, hold.FutureCites, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := scholarrank.RankScorer(trainNet, "citecount", nil, scholarrank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ccAcc, _, err := scholarrank.PairwiseAccuracy(cc.Importance, hold.FutureCites, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if qisaAcc <= ccAcc {
		t.Errorf("QISA %v did not beat CiteCount %v on the pipeline corpus", qisaAcc, ccAcc)
	}

	// Entity rankings line up with the network dimensions.
	authors, err := scholarrank.AuthorRank(trainNet, trainScores.Importance, scholarrank.EntityRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(authors) != hold.Train.NumAuthors() {
		t.Errorf("author scores = %d, authors = %d", len(authors), hold.Train.NumAuthors())
	}
}

// Property: on arbitrary generated corpora, Rank returns importance
// in [0,1], aligned with the corpus, and fully deterministic.
func TestQuickRankInvariants(t *testing.T) {
	f := func(seed int64) bool {
		size := seed % 7
		if size < 0 {
			size = -size
		}
		cfg := scholarrank.DefaultGeneratorConfig(300 + int(size)*100)
		cfg.Seed = seed
		gc, err := scholarrank.GenerateCorpus(cfg)
		if err != nil {
			return false
		}
		net := scholarrank.BuildNetwork(gc.Store)
		a, err := scholarrank.Rank(net, scholarrank.DefaultOptions())
		if err != nil {
			return false
		}
		if len(a.Importance) != gc.Store.NumArticles() {
			return false
		}
		for _, v := range a.Importance {
			if v < 0 || v > 1 || v != v {
				return false
			}
		}
		b, err := scholarrank.Rank(net, scholarrank.DefaultOptions())
		if err != nil {
			return false
		}
		for i := range a.Importance {
			if a.Importance[i] != b.Importance[i] {
				return false
			}
		}
		return true
	}
	cfgQ := &quick.Config{
		MaxCount: 8,
		Rand:     rand.New(rand.NewSource(2)),
	}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Error(err)
	}
}

package live

import (
	"bytes"
	"testing"

	"scholarrank/internal/core"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// TestSnapshotScorerRoundTrip checks that the format persists the
// scorer name and option bag, including for a non-default scorer
// whose missing component vectors are stored as zeros.
func TestSnapshotScorerRoundTrip(t *testing.T) {
	store, _ := rankedFixture(t)
	bag := core.ScorerOptions{"damping": 0.9, "rho": 0.25}
	sc, err := core.RankScorer(hetnet.Build(store), core.ScorerCiteRank, bag, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Hetero != nil {
		t.Fatal("fixture assumption: citerank should not produce a hetero component")
	}
	sn := Capture(store, sc, 5, 1700000000)
	if sn.Scorer != core.ScorerCiteRank {
		t.Fatalf("Capture scorer = %q", sn.Scorer)
	}

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sn); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Scorer != core.ScorerCiteRank {
		t.Errorf("scorer round trip: %q, want %q", got.Scorer, core.ScorerCiteRank)
	}
	if len(got.ScorerOpts) != 2 || got.ScorerOpts["damping"] != 0.9 || got.ScorerOpts["rho"] != 0.25 {
		t.Errorf("scorer opts round trip: %v, want %v", got.ScorerOpts, bag)
	}
	if d := sparse.MaxDiff(got.Importance, sn.Importance); d != 0 {
		t.Errorf("importance round trip deviates by %v", d)
	}
	for i, v := range got.Hetero {
		if v != 0 {
			t.Errorf("missing component decoded non-zero at %d: %v", i, v)
			break
		}
	}
	scores := got.Scores()
	if scores.Scorer != core.ScorerCiteRank || scores.ScorerOpts["damping"] != 0.9 {
		t.Errorf("Scores() view lost scorer metadata: %q %v", scores.Scorer, scores.ScorerOpts)
	}
}

// TestCaptureNilComponentsRectangular pins the Capture contract the
// snapshot writer depends on: any component a scorer left nil is
// written as zeros of full length, never a ragged vector.
func TestCaptureNilComponentsRectangular(t *testing.T) {
	store, _ := rankedFixture(t)
	sc, err := core.RankScorer(hetnet.Build(store), core.ScorerPopularity, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sn := Capture(store, sc, 0, 0)
	n := store.NumArticles()
	for name, v := range map[string][]float64{
		"Prestige": sn.Prestige, "Popularity": sn.Popularity,
		"Hetero": sn.Hetero, "RawPrestige": sn.RawPrestige,
	} {
		if len(v) != n {
			t.Errorf("%s: length %d, want %d", name, len(v), n)
		}
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sn); err != nil {
		t.Fatalf("non-default scorer snapshot does not serialise: %v", err)
	}
}

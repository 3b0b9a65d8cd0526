package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scholarrank/internal/cliutil"
	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/live"
)

// writeTestCorpus creates a small corpus file and returns its path.
func writeTestCorpus(t *testing.T) string {
	t.Helper()
	b := corpus.NewBuilder()
	au, _ := b.InternAuthor("au", "Author")
	v, _ := b.InternVenue("v", "Venue")
	var ids []corpus.ArticleID
	for i, year := range []int{1990, 1995, 2000, 2005, 2010} {
		id, err := b.AddArticle(corpus.ArticleMeta{
			Key: "p" + string(rune('0'+i)), Title: "Article", Year: year,
			Venue: v, Authors: []corpus.AuthorID{au},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := 0; j < i; j++ {
			if err := b.AddCitation(ids[i], ids[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cliutil.WriteCorpus(f, b.Freeze(), cliutil.FormatJSONL); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSingleAlgo(t *testing.T) {
	path := writeTestCorpus(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-scorer", "citecount", "-k", "3"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "# citecount") {
		t.Errorf("missing header in %q", got)
	}
	// p0 has the most citations (4): it must appear on the rank-1 line.
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "1") && !strings.Contains(line, "p0") {
			t.Errorf("rank-1 line = %q, want p0", line)
		}
	}
	if !strings.Contains(errBuf.String(), "loaded 5 articles") {
		t.Errorf("stderr = %q", errBuf.String())
	}
}

func TestRunAllAlgos(t *testing.T) {
	path := writeTestCorpus(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-scorer", "all", "-k", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n# "); got != len(core.ScorerNames()) {
		t.Errorf("-scorer all printed %d rankings, want one per registered scorer (%d)", got, len(core.ScorerNames()))
	}
	for _, want := range []string{"# citecount", "# pagerank (pagerank: ", "# QISA-Rank (prestige: ", "# corank (corank: "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunEntities(t *testing.T) {
	path := writeTestCorpus(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-entities", "-k", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "## top authors") || !strings.Contains(out.String(), "## top venues") {
		t.Errorf("entities output missing: %q", out.String())
	}
	// JSONL stores keys only, so the reloaded author's name is its key.
	if !strings.Contains(out.String(), "au (5 articles)") {
		t.Errorf("author line missing: %q", out.String())
	}
}

func TestRunSaveScores(t *testing.T) {
	path := writeTestCorpus(t)
	snapPath := filepath.Join(t.TempDir(), "ranking.snap")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-save-scores", snapPath, "-k", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# QISA-Rank") {
		t.Errorf("missing ranking table: %q", out.String())
	}
	if !strings.Contains(errBuf.String(), "wrote ranking snapshot") {
		t.Errorf("stderr = %q", errBuf.String())
	}
	snap, err := live.ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Articles != 5 || len(snap.Importance) != 5 {
		t.Errorf("snapshot = %d articles, %d scores", snap.Articles, len(snap.Importance))
	}
	// The snapshot must verify against a reload of the same corpus.
	store, err := cliutil.LoadCorpus(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Matches(store); err != nil {
		t.Error(err)
	}

	// A snapshot holds one ranking.
	if err := run([]string{"-in", path, "-scorer", "all", "-save-scores", snapPath}, &out, &errBuf); err == nil {
		t.Error("-save-scores with -scorer all accepted")
	}
}

func TestRunErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{}, &out, &errBuf); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent/x.jsonl"}, &out, &errBuf); err == nil {
		t.Error("missing file accepted")
	}
	path := writeTestCorpus(t)
	if err := run([]string{"-in", path, "-scorer", "all", "-scorer-opt", "damping=0.9"}, &out, &errBuf); err == nil {
		t.Error("-scorer-opt with -scorer all accepted")
	}
}

func TestRunScorer(t *testing.T) {
	path := writeTestCorpus(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-scorer", "ewpr", "-scorer-opt", "damping=0.9", "-k", "3"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# ewpr") {
		t.Errorf("missing scorer header: %q", out.String())
	}

	// A scorer snapshot persists the scorer name and option bag.
	snapPath := filepath.Join(t.TempDir(), "scorer.snap")
	out.Reset()
	if err := run([]string{"-in", path, "-scorer", "sceas", "-save-scores", snapPath, "-k", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	snap, err := live.ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Scorer != "sceas" {
		t.Errorf("snapshot scorer = %q, want sceas", snap.Scorer)
	}

	// Baselines trace and persist like any scorer.
	errBuf.Reset()
	if err := run([]string{"-in", path, "-scorer", "citerank", "-trace", "-save-scores", snapPath, "-k", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if got := errBuf.String(); !strings.Contains(got, "trace citerank iter=1") {
		t.Errorf("-scorer citerank -trace output: %q", got)
	}
	if snap, err = live.ReadSnapshotFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if snap.Scorer != "citerank" {
		t.Errorf("snapshot scorer = %q, want citerank", snap.Scorer)
	}

	// -trace streams the sweeps and prints the back-edge fraction of
	// the solver order once.
	errBuf.Reset()
	if err := run([]string{"-in", path, "-trace", "-k", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if got := errBuf.String(); strings.Count(got, "back_edge_fraction=") != 1 || !strings.Contains(got, "trace prestige iter=1") {
		t.Errorf("-trace output: %q", got)
	}

	if err := run([]string{"-in", path, "-scorer", "no-such"}, &out, &errBuf); err == nil {
		t.Error("unknown scorer accepted")
	}
	if err := run([]string{"-in", path, "-scorer", "ewpr", "-scorer-opt", "damping=high"}, &out, &errBuf); err == nil {
		t.Error("non-numeric scorer option accepted")
	}
	if err := run([]string{"-in", path, "-scorer-opt", "damping=0.9"}, &out, &errBuf); err == nil {
		t.Error("-scorer-opt without -scorer accepted")
	}
}

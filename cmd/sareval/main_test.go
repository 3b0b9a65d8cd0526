package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperimentQuick(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-run", "T1", "-quick"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "== T1:") || !strings.Contains(got, "T1 finished in") {
		t.Errorf("output = %q", got)
	}
}

func TestRunLowercaseID(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-run", "f3", "-quick"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== F3:") {
		t.Errorf("lowercase id not accepted: %q", out.String())
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	if err := run([]string{"-run", "T1", "-quick", "-csv", dir}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "T1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 { // header + 3 corpora
		t.Errorf("csv lines = %d: %q", len(lines), raw)
	}
	if !strings.HasPrefix(lines[0], "corpus,") {
		t.Errorf("csv header = %q", lines[0])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-run", "T99"}, &out, &errBuf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-bogus"}, &out, &errBuf); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunLeaderboard(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "leaderboard.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-leaderboard", "-quick", "-workers", "1", "-topk", "50", "-json", jsonPath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "== L1:") || !strings.Contains(got, "== L2:") {
		t.Fatalf("leaderboard tables missing: %q", got)
	}
	for _, scorer := range []string{"default", "prestige", "ewpr", "sceas"} {
		if !strings.Contains(got, scorer) {
			t.Errorf("leaderboard missing scorer %q", scorer)
		}
	}
	if !strings.Contains(got, "kendall_tau") || !strings.Contains(got, "overlap@50") {
		t.Errorf("pairwise metrics missing: %q", got)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Articles int `json:"articles"`
		Workers  int `json:"workers"`
		TopK     int `json:"top_k"`
		Scorers  []struct {
			Name      string `json:"name"`
			Converged bool   `json:"converged"`
		} `json:"scorers"`
		Pairwise []struct {
			Kendall float64 `json:"kendall_tau"`
		} `json:"pairwise"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Scorers) < 4 {
		t.Errorf("artifact has %d scorers, want >= 4", len(report.Scorers))
	}
	wantPairs := len(report.Scorers) * (len(report.Scorers) - 1) / 2
	if len(report.Pairwise) != wantPairs {
		t.Errorf("artifact has %d pairs, want %d", len(report.Pairwise), wantPairs)
	}
	// -workers is the one parallelism control; the artifact reports the
	// shared pool's size.
	if report.Workers != 1 || !strings.Contains(got, "1 workers") {
		t.Errorf("artifact workers = %d, cost-table note %q; want 1", report.Workers, got)
	}
	if report.TopK != 50 || report.Articles == 0 {
		t.Errorf("artifact metadata: %+v", report)
	}
}

func TestRunLeaderboardFlagValidation(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-leaderboard", "-quick", "-topk", "0"}, &out, &errBuf); err == nil {
		t.Error("-topk 0 accepted")
	}
	if err := run([]string{"-run", "T1", "-quick", "-json", "x.json"}, &out, &errBuf); err == nil {
		t.Error("-json without -leaderboard accepted")
	}
}

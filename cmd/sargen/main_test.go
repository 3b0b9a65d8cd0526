package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scholarrank/internal/cliutil"
	"scholarrank/internal/corpus"
)

func TestRunStdoutJSONL(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-n", "200", "-seed", "3"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s, err := cliutil.ReadCorpus(&out, cliutil.FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumArticles() != 200 {
		t.Errorf("articles = %d", s.NumArticles())
	}
	if s.NumCitations() == 0 {
		t.Error("no citations")
	}
}

func TestRunFileFormats(t *testing.T) {
	dir := t.TempDir()
	for _, ext := range []string{"jsonl", "tsv", "scorp", "jsonl.gz", "scorp.gz"} {
		path := filepath.Join(dir, "c."+ext)
		var out, errBuf bytes.Buffer
		boot := filepath.Join(dir, "boot-"+ext+".scorp")
		if err := run([]string{"-n", "150", "-out", path, "-emit-corpus", boot}, &out, &errBuf); err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		s, err := cliutil.LoadCorpus(path, "")
		if err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		if s.NumArticles() != 150 {
			t.Errorf("%s: articles = %d", ext, s.NumArticles())
		}
		// -emit-corpus writes the same corpus in the boot format.
		m, err := corpus.OpenMapped(boot)
		if err != nil {
			t.Fatalf("%s: -emit-corpus: %v", ext, err)
		}
		if m.NumArticles() != 150 || m.NumCitations() != s.NumCitations() {
			t.Errorf("%s: -emit-corpus wrote %d/%d, want 150/%d", ext, m.NumArticles(), m.NumCitations(), s.NumCitations())
		}
		m.Close()
	}
}

func TestRunQualityExport(t *testing.T) {
	dir := t.TempDir()
	qpath := filepath.Join(dir, "q.tsv")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-n", "120", "-quality", qpath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(qpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		parts := strings.Split(sc.Text(), "\t")
		if len(parts) != 2 {
			t.Fatalf("bad quality row: %q", sc.Text())
		}
		lines++
	}
	if lines != 120 {
		t.Errorf("quality rows = %d", lines)
	}
}

func TestRunStats(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-n", "150", "-stats"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "nodes=150") {
		t.Errorf("stats output = %q", errBuf.String())
	}
}

func TestRunBadArgs(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-n", "0"}, &out, &errBuf); err == nil {
		t.Error("n=0 accepted")
	}
	if err := run([]string{"-format", "xml"}, &out, &errBuf); err == nil {
		t.Error("bad format accepted")
	}
	if err := run([]string{"-no-such-flag"}, &out, &errBuf); err == nil {
		t.Error("unknown flag accepted")
	}
}

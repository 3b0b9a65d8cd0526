package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// timingColumns reads testdata/timing-columns.txt: table id → the
// columns that read wall-clock time and are masked before comparison.
func timingColumns(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "timing-columns.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) > 1 && !strings.HasPrefix(f[0], "#") {
			out[f[0]] = f[1:]
		}
	}
	return out
}

// maskCSV blanks the named columns of a CSV document; without names
// it returns the document unchanged.
func maskCSV(t *testing.T, doc []byte, cols []string) []byte {
	t.Helper()
	if len(cols) == 0 {
		return doc
	}
	rows, err := csv.NewReader(bytes.NewReader(doc)).ReadAll()
	if err != nil || len(rows) == 0 {
		t.Fatalf("parse csv: %v", err)
	}
	for c, name := range rows[0] {
		for _, m := range cols {
			if name != m {
				continue
			}
			for _, row := range rows[1:] {
				row[c] = "*"
			}
		}
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQuickSuiteGolden runs every suite entry on the quick corpora and
// compares each table's CSV byte for byte with testdata/quick, timing
// columns masked. The goldens are `sareval -run all -quick -csv`
// output; regenerate them only for a change that means to move a
// number, and say which.
func TestQuickSuiteGolden(t *testing.T) {
	timing := timingColumns(t)
	seen := 0
	for _, e := range All() {
		tables, err := e.Run(quickOpts)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, tbl := range tables {
			seen++
			var got bytes.Buffer
			if err := tbl.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "quick", tbl.ID+".csv"))
			if err != nil {
				t.Errorf("%s: %v", tbl.ID, err)
				continue
			}
			g, w := maskCSV(t, got.Bytes(), timing[tbl.ID]), maskCSV(t, want, timing[tbl.ID])
			if !bytes.Equal(g, w) {
				t.Errorf("%s differs from its golden:\n--- got\n%s--- want\n%s", tbl.ID, g, w)
			}
		}
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "quick", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(goldens) {
		t.Errorf("suite produced %d tables, testdata/quick holds %d", seen, len(goldens))
	}
}

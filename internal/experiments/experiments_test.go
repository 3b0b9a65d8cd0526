package experiments

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

var quickOpts = Options{Quick: true, Workers: 1}

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9"}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("experiment %s not registered: %v", id, err)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	// Tables sort before figures.
	all := All()
	if all[0].ID[0] != 'T' || all[len(all)-1].ID[0] != 'F' {
		t.Errorf("ordering wrong: first %s last %s", all[0].ID, all[len(all)-1].ID)
	}
	if _, err := ByID("T99"); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("unknown id: %v", err)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := &Table{
		ID: "X", Title: "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("x", 0.123456)
	tbl.AddRow(7, 12345.6)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "0.1235", "12346", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,b" {
		t.Errorf("csv = %q", buf.String())
	}
	if tbl.Rows[0][0] != "x" {
		t.Errorf("Rows[0][0] = %q", tbl.Rows[0][0])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0: "0", 0.5: "0.5000", 42.42: "42.42", 5000: "5000",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(nan()); got != "n/a" {
		t.Errorf("NaN = %q", got)
	}
}

func nan() float64 { var z float64; return z / z }

func TestBuildCorpusPresets(t *testing.T) {
	small, err := BuildCorpus(SizeSmall, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if small.Store.NumArticles() != 20000/25 {
		t.Errorf("quick small = %d articles", small.Store.NumArticles())
	}
	// Cache returns the identical object.
	again, err := BuildCorpus(SizeSmall, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if small != again {
		t.Error("corpus cache miss for identical config")
	}
	if _, err := BuildCorpus("nonsense", quickOpts); err == nil {
		t.Error("unknown preset accepted")
	}
}

func mustRun(t *testing.T, id string) []*Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(quickOpts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s returned no tables", id)
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s table %s has no rows", id, tbl.ID)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Fatalf("%s table %s: row width %d vs %d columns", id, tbl.ID, len(row), len(tbl.Columns))
			}
		}
	}
	return tables
}

func cellFloat(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a float", row, col, tbl.Rows[row][col])
	}
	return v
}

func TestT1CorpusStats(t *testing.T) {
	tbl := mustRun(t, "T1")[0]
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Article counts increase small < medium < large.
	a := cellFloat(t, tbl, 0, 1)
	b := cellFloat(t, tbl, 1, 1)
	c := cellFloat(t, tbl, 2, 1)
	if !(a < b && b < c) {
		t.Errorf("sizes not increasing: %v %v %v", a, b, c)
	}
}

func TestT2Effectiveness(t *testing.T) {
	tbl := mustRun(t, "T2")[0]
	if len(tbl.Rows) != len(methods) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(methods))
	}
	var qisaAcc float64
	found := false
	for i, row := range tbl.Rows {
		acc := cellFloat(t, tbl, i, 3) // medium accuracy
		if acc < 0 || acc > 1 {
			t.Errorf("%s accuracy %v out of range", row[0], acc)
		}
		if row[0] == qisaMethodName {
			qisaAcc = acc
			found = true
		}
	}
	if !found {
		t.Fatal("QISA-Rank row missing")
	}
	// Even in quick mode the core method must beat a coin flip.
	if qisaAcc <= 0.55 {
		t.Errorf("QISA-Rank medium accuracy = %v, want > 0.55", qisaAcc)
	}
}

func TestT3AwardRecall(t *testing.T) {
	tbl := mustRun(t, "T3")[0]
	if len(tbl.Rows) != len(methods) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestT4Scalability(t *testing.T) {
	tbl := mustRun(t, "T4")[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Citations grow with articles.
	if cellFloat(t, tbl, 3, 1) <= cellFloat(t, tbl, 0, 1) {
		t.Error("citations did not grow with size")
	}
}

func TestT5Ablation(t *testing.T) {
	tbl := mustRun(t, "T5")[0]
	if len(tbl.Rows) != len(ablationVariants()) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "full" {
		t.Errorf("first variant = %q", tbl.Rows[0][0])
	}
}

func TestT6Entities(t *testing.T) {
	tbl := mustRun(t, "T6")[0]
	if len(tbl.Rows) != 13 { // CoRank direct + 2 entity kinds x 2 signals x 3 aggregates
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		acc := cellFloat(t, tbl, i, 3)
		if acc < 0 || acc > 1 {
			t.Errorf("row %d accuracy %v", i, acc)
		}
	}
}

func TestT7Retrieval(t *testing.T) {
	tbl := mustRun(t, "T7")[0]
	if len(tbl.Rows) != len(methods) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		pure := cellFloat(t, tbl, i, 1)
		best := cellFloat(t, tbl, i, 3)
		if best+1e-9 < pure {
			t.Errorf("row %d: best blend %v below pure relevance %v", i, best, pure)
		}
	}
}

func TestT8Variance(t *testing.T) {
	tbl := mustRun(t, "T8")[0]
	if len(tbl.Rows) != len(varianceMethods) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		lo := cellFloat(t, tbl, i, 3)
		hi := cellFloat(t, tbl, i, 4)
		if lo > hi {
			t.Errorf("row %d: CI inverted [%v, %v]", i, lo, hi)
		}
	}
}

func TestF1DecaySweep(t *testing.T) {
	tbl := mustRun(t, "F1")[0]
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestF2EnsembleSweep(t *testing.T) {
	tables := mustRun(t, "F2")
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	if len(tables[1].Rows) != 3 {
		t.Errorf("ensemble kinds = %d rows", len(tables[1].Rows))
	}
}

func TestF3Convergence(t *testing.T) {
	tbl := mustRun(t, "F3")[0]
	if len(tbl.Rows) != convergenceIters {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Columns) != 6 { // iteration + 5 methods
		t.Errorf("columns = %d", len(tbl.Columns))
	}
}

func TestF4ColdStart(t *testing.T) {
	tbl := mustRun(t, "F4")[0]
	if len(tbl.Rows) != len(methods) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Columns) != 1+coldStartBuckets {
		t.Errorf("columns = %d", len(tbl.Columns))
	}
}

func TestF5Sparsity(t *testing.T) {
	tables := mustRun(t, "F5")
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	accT := tables[0]
	if len(accT.Rows) != 5 {
		t.Fatalf("fractions = %d", len(accT.Rows))
	}
	// At 100% retained, tau vs own full ranking must be ~1.
	tauT := tables[1]
	last := tauT.Rows[len(tauT.Rows)-1]
	for col := 1; col < len(last); col++ {
		v := cellFloat(t, tauT, len(tauT.Rows)-1, col)
		if v < 0.999 {
			t.Errorf("tau at 100%% for %s = %v, want ≈1", tauT.Columns[col], v)
		}
	}
}

func TestF6Parallel(t *testing.T) {
	tbl := mustRun(t, "F6")[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestF8Noise(t *testing.T) {
	tbl := mustRun(t, "F8")[0]
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Columns) != 1+len(methods) {
		t.Errorf("columns = %d", len(tbl.Columns))
	}
}

func TestF9Fields(t *testing.T) {
	tbl := mustRun(t, "F9")[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// FieldNorm must beat raw CiteCount on accuracy (the point of
	// field normalisation), even in quick mode.
	var ccAcc, fnAcc float64
	for i, row := range tbl.Rows {
		switch row[0] {
		case "CiteCount":
			ccAcc = cellFloat(t, tbl, i, 1)
		case "FieldNorm":
			fnAcc = cellFloat(t, tbl, i, 1)
		}
	}
	if fnAcc <= ccAcc {
		t.Errorf("FieldNorm %v not above CiteCount %v", fnAcc, ccAcc)
	}
}

func TestF7Solver(t *testing.T) {
	tbl := mustRun(t, "F7")[0]
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		powerIters := cellFloat(t, tbl, i, 1)
		gsIters := cellFloat(t, tbl, i, 3)
		if gsIters >= powerIters {
			t.Errorf("row %d: GS iters %v not fewer than power %v", i, gsIters, powerIters)
		}
		tau := cellFloat(t, tbl, i, 5)
		if tau < 0.999 {
			t.Errorf("row %d: solvers disagree, tau = %v", i, tau)
		}
	}
}

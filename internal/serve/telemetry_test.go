package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// telemetryStore builds a six-article corpus with two authors and two
// venues, round-tripped through SCORP so the store carries no
// wall-clock measurement of its own (a decoded store reports a zero
// reorder time).
func telemetryStore(t *testing.T) *corpus.Store {
	t.Helper()
	b := corpus.NewBuilder()
	a1, _ := b.InternAuthor("au1", "First Author")
	a2, _ := b.InternAuthor("au2", "Second Author")
	v1, _ := b.InternVenue("v1", "Venue One")
	v2, _ := b.InternVenue("v2", "Venue Two")
	metas := []corpus.ArticleMeta{
		{Key: "a", Title: "A", Year: 1998, Venue: v1, Authors: []corpus.AuthorID{a1}},
		{Key: "b", Title: "B", Year: 2002, Venue: v2, Authors: []corpus.AuthorID{a2}},
		{Key: "c", Title: "C", Year: 2006, Venue: v1, Authors: []corpus.AuthorID{a1, a2}},
		{Key: "d", Title: "D", Year: 2010, Venue: corpus.NoVenue, Authors: []corpus.AuthorID{a2}},
		{Key: "e", Title: "E", Year: 2012, Venue: v2, Authors: []corpus.AuthorID{a1}},
		{Key: "f", Title: "F", Year: 2014, Venue: v1, Authors: []corpus.AuthorID{a2}},
	}
	ids := make([]corpus.ArticleID, len(metas))
	for i, m := range metas {
		id, err := b.AddArticle(m)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, c := range [][2]int{{1, 0}, {2, 0}, {2, 1}, {3, 2}, {4, 0}, {4, 3}, {5, 2}, {5, 4}} {
		if err := b.AddCitation(ids[c[0]], ids[c[1]]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := corpus.WriteSCORP(&buf, b.Freeze()); err != nil {
		t.Fatal(err)
	}
	s, err := corpus.ReadSCORP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// telemetryScores is a fixed solve result for telemetryStore: one
// article scores zero, and both phases report fixed convergence, wall
// time and acceleration figures.
func telemetryScores() *core.Scores {
	return &core.Scores{
		Importance:  []float64{0.9, 0.25, 0.5, 0, 0.375, 0.75},
		Prestige:    []float64{0.4, 0.1, 0.2, 0.05, 0.15, 0.1},
		Popularity:  []float64{0.1, 0.2, 0.3, 0.05, 0.15, 0.2},
		Hetero:      []float64{0.3, 0.1, 0.2, 0.1, 0.1, 0.2},
		RawPrestige: []float64{0.4, 0.1, 0.2, 0.05, 0.15, 0.1},
		PrestigeStats: sparse.IterStats{Iterations: 2, Residual: 1.5e-12, Converged: true,
			Elapsed: 1250 * time.Millisecond, Extrapolations: 1, IterationsSaved: 3},
		HeteroStats: sparse.IterStats{Iterations: 11, Residual: 7.25e-11, Converged: true,
			Elapsed: 2500 * time.Millisecond, Extrapolations: 2, IterationsSaved: 4},
		BackEdgeFraction: 0.125,
		Pool:             sparse.PoolStats{Workers: 3, Runs: 41, Tasks: 97},
	}
}

// telemetryServer serves telemetryScores over telemetryStore on a clock
// that stands still: ranked at t0, read 90.75 s later. Its counters
// are moved by a fixed request sequence: a /query miss then hit, a
// /related miss and one shed /top.
func telemetryServer(t *testing.T) *Server {
	t.Helper()
	t0 := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	now := t0
	s := newServerShell(Config{
		Clock:             func() time.Time { return now },
		MaxInflight:       1,
		QueueTimeout:      -1,
		CorpusLoadSeconds: 0.5,
	})
	store := telemetryStore(t)
	gen, err := newGeneration(store, hetnet.Build(store), telemetryScores(), store.Fingerprint(), 7, "solve", s.clock())
	if err != nil {
		t.Fatal(err)
	}
	s.gen.Store(gen)
	now = t0.Add(90*time.Second + 750*time.Millisecond)

	h := s.Handler()
	for _, path := range []string{"/query?author=au1&k=2", "/query?author=au1&k=2", "/related?key=a&k=3"} {
		if rec := get(t, h, path); rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	if !s.limiter.Acquire(context.Background()) {
		t.Fatal("fixture limiter refused its only slot")
	}
	if rec := get(t, h, "/top"); rec.Code != 503 {
		t.Fatalf("/top with the only slot held: status %d, want 503", rec.Code)
	}
	s.limiter.Release()
	return s
}

// maskedStatsKey matches the /stats keys whose values depend on the
// process (runtime and build identity), not on the server's state.
var maskedStatsKey = regexp.MustCompile(`"(go_goroutines|go_heap_live_bytes|go_version|build_revision)":("[^"]*"|[^,}]*)`)

// maskedFamily matches /metrics lines of the process-level families
// (Go runtime, process, build identity and request instrumentation).
var maskedFamily = regexp.MustCompile(`^(# (HELP|TYPE) )?(go_|process_|build_info|http_)`)

func maskMetrics(body string) string {
	var out strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		if line != "" && !maskedFamily.MatchString(line) {
			out.WriteString(line)
		}
	}
	return out.String()
}

// TestTelemetryGolden pins both telemetry endpoints byte for byte on a
// fixed-clock fixture: every /stats key with its JSON type and value,
// and every sarserve_* family with its HELP text, type, labels and
// value. Only process-level quantities are masked.
func TestTelemetryGolden(t *testing.T) {
	s := telemetryServer(t)
	h := s.Handler()
	stats := get(t, h, "/stats").Body.String()
	metrics := get(t, h, "/metrics").Body.String()
	checkGolden(t, "telemetry_stats.golden", maskedStatsKey.ReplaceAllString(stats, `"$1":"*"`))
	checkGolden(t, "telemetry_metrics.golden", maskMetrics(metrics))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the rendered body:\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}

// TestTelemetryTableMatchesREADME checks README's telemetry table
// against the declaration list, row for row: each declared family
// with its label and type, each /stats key beside the family it
// mirrors, and each obs family /metrics renders beside them. It also
// checks no family or key is declared twice.
func TestTelemetryTableMatchesREADME(t *testing.T) {
	s := telemetryServer(t)
	want := map[string]string{} // row id -> "metric cell | keys cell | type"
	add := func(id, row string) {
		if _, dup := want[id]; dup {
			t.Errorf("%s declared twice", id)
		}
		want[id] = row
	}
	keys := map[string]bool{}
	declared := map[string]bool{}
	for _, q := range s.metrics.list {
		metric, keyCell, typ := "—", "—", "—"
		if q.metric != "" {
			declared[q.metric] = true
			metric, typ = "`"+q.metric+"`", "gauge"
			if q.label != "" {
				metric = "`" + q.metric + "{" + q.label + "}`"
			}
			if q.counters != nil {
				typ = "counter"
			}
		}
		if q.key != "" {
			var ks []string
			if q.label == "" || q.oneHot {
				ks = []string{q.key}
			} else {
				for _, v := range q.values {
					ks = append(ks, fmt.Sprintf(q.key, v))
				}
			}
			for _, k := range ks {
				if keys[k] {
					t.Errorf("/stats key %q declared twice", k)
				}
				keys[k] = true
			}
			keyCell = "`" + strings.Join(ks, "`, `") + "`"
		}
		id := "stats " + keyCell
		if q.metric != "" {
			id = "metric " + q.metric
		}
		add(id, metric+" | "+keyCell+" | "+typ)
	}
	// The obs families: any label set, no /stats key.
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) (\S+)$`).FindAllStringSubmatch(get(t, s.Handler(), "/metrics").Body.String(), -1) {
		if !declared[m[1]] {
			add("metric "+m[1], "`"+m[1]+"` | — | "+m[2])
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "<!-- telemetry table: begin -->\n")
	table, _, ok2 := strings.Cut(table, "<!-- telemetry table: end -->")
	if !ok || !ok2 {
		t.Fatal("README has no telemetry table markers")
	}
	got := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(table), "\n")[2:] {
		cells := strings.Split(line, " | ")
		if len(cells) < 4 {
			t.Errorf("README telemetry row %q has fewer than four cells", line)
			continue
		}
		metric, keyCell, typ := strings.TrimPrefix(cells[0], "| "), cells[1], cells[2]
		name := strings.Trim(metric, "`")
		name, _, _ = strings.Cut(name, "{")
		id := "stats " + keyCell
		if metric != "—" {
			id = "metric " + name
			if !declared[name] {
				metric = "`" + name + "`" // obs families: labels are documentation
			}
		}
		if _, dup := got[id]; dup {
			t.Errorf("README lists %s twice", id)
		}
		got[id] = metric + " | " + keyCell + " | " + typ
	}
	for id, row := range want {
		if got[id] != row {
			t.Errorf("README telemetry row for %s = %q, want %q", id, got[id], row)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("README lists %s, which nothing declares", id)
		}
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"scholarrank/internal/core"
	"scholarrank/internal/obs"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
)

// tracedServer builds the fixture server with request logging into
// buf and every trace retained (threshold < 0).
func tracedServer(t *testing.T, buf *bytes.Buffer) *Server {
	t.Helper()
	srv, err := NewWithConfig(fixtureStore(t), Config{
		Options:        core.DefaultOptions(),
		RequestLog:     true,
		Logger:         slog.New(slog.NewTextHandler(buf, nil)),
		TraceThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// debugTraces fetches and decodes GET /debug/traces.
func debugTraces(t *testing.T, h http.Handler) []obs.Trace {
	t.Helper()
	rec := get(t, h, "/debug/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Recent []obs.Trace `json:"recent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	return out.Recent
}

func findTrace(traces []obs.Trace, rootName string) *obs.Trace {
	for i := range traces {
		if traces[i].Root.Name == rootName {
			return &traces[i]
		}
	}
	return nil
}

// TestQueryTraceBreakdown is the acceptance path: one cache-miss
// /query appears in /debug/traces as a root span with the queue,
// cache-lookup and index-execution children, and the same breakdown
// reaches the Server-Timing header and the wide-event log record.
func TestQueryTraceBreakdown(t *testing.T) {
	var buf bytes.Buffer
	srv := tracedServer(t, &buf)
	h := srv.Handler()

	buf.Reset()
	rec := get(t, h, "/query?author=au")
	if rec.Code != http.StatusOK {
		t.Fatalf("/query status = %d: %s", rec.Code, rec.Body)
	}
	if _, err := obs.ParseTraceparent(rec.Header().Get(obs.TraceparentHeader)); err != nil {
		t.Errorf("response traceparent: %v", err)
	}
	st := rec.Header().Get("Server-Timing")
	for _, part := range []string{"queue;dur=", "cache;dur=", "index;dur=", "corpus;dur=", "total;dur="} {
		if !strings.Contains(st, part) {
			t.Errorf("Server-Timing missing %q: %q", part, st)
		}
	}

	line := buf.String()
	for _, want := range []string{
		"route=/query", "status=200", "cache=miss", "trace_id=",
		"ranking_version=1", "spans.queue=", "spans.cache=", "spans.index=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("wide event missing %q: %s", want, line)
		}
	}

	tr := findTrace(debugTraces(t, h), "/query")
	if tr == nil {
		t.Fatal("/query trace not in /debug/traces")
	}
	if len(tr.Spans) < 3 {
		t.Fatalf("want >= 3 child spans, got %+v", tr.Spans)
	}
	for _, name := range []string{"queue", "cache", "index"} {
		if tr.Find(name) == nil {
			t.Errorf("missing %s span: %+v", name, tr.Spans)
		}
	}
	if hit, ok := tr.Find("cache").Attrs["hit"].(bool); !ok || hit {
		t.Errorf("cache span attrs = %+v, want hit=false", tr.Find("cache").Attrs)
	}

	// The same request again is a cache hit: no index span this time,
	// and the wide event flips to cache=hit.
	buf.Reset()
	rec = get(t, h, "/query?author=au")
	if rec.Code != http.StatusOK {
		t.Fatalf("second /query status = %d", rec.Code)
	}
	if st := rec.Header().Get("Server-Timing"); strings.Contains(st, "index;dur=") {
		t.Errorf("cache hit still ran the index: %q", st)
	}
	if !strings.Contains(buf.String(), "cache=hit") {
		t.Errorf("wide event not cache=hit: %s", buf.String())
	}
}

// metricWalkUnconverged is the family counting /related walks stopped
// at the iteration cap.
const metricWalkUnconverged = "sarserve_related_unconverged_total"

// TestRelatedWalkConvergenceIsReported checks a /related walk's
// convergence reaches the walk span and the wide event, and that a
// walk stopped by the iteration cap is served but counted.
func TestRelatedWalkConvergenceIsReported(t *testing.T) {
	var buf bytes.Buffer
	srv := tracedServer(t, &buf)
	h := srv.Handler()
	unconverged := func() string {
		t.Helper()
		for _, line := range strings.Split(get(t, h, "/metrics").Body.String(), "\n") {
			if strings.HasPrefix(line, metricWalkUnconverged+" ") {
				return strings.TrimPrefix(line, metricWalkUnconverged+" ")
			}
		}
		t.Fatalf("%s not exported", metricWalkUnconverged)
		return ""
	}

	buf.Reset()
	if rec := get(t, h, "/related?key=a&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("/related status = %d: %s", rec.Code, rec.Body)
	}
	if line := buf.String(); !strings.Contains(line, "walk_converged=true") || !strings.Contains(line, "walk_iters=") || !strings.Contains(line, "walk_certified=") {
		t.Errorf("wide event lacks the walk's convergence: %s", line)
	}
	walk := findTrace(debugTraces(t, h), "/related").Find("walk")
	if walk == nil || walk.Attrs["converged"] != true || walk.Attrs["iters"] == nil || walk.Attrs["residual"] == nil || walk.Attrs["certified"] == nil {
		t.Errorf("walk span attrs = %+v, want iters, residual, converged=true, certified", walk)
	}
	if got := unconverged(); got != "0" {
		t.Errorf("%s = %s after a converged walk", metricWalkUnconverged, got)
	}

	// Swap in an index whose walks cannot converge: one sweep allowed.
	g := srv.gen.Load()
	var err error
	if g.related, err = rank.NewRelatedIndex(g.net, rank.RelatedOptions{Iter: sparse.IterOptions{MaxIter: 1}}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if rec := get(t, h, "/related?key=b&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("unconverged /related status = %d: %s", rec.Code, rec.Body)
	}
	if line := buf.String(); !strings.Contains(line, "walk_converged=false") || !strings.Contains(line, "walk_iters=1") || !strings.Contains(line, "walk_certified=false") {
		t.Errorf("wide event hides the unconverged walk: %s", line)
	}
	if got := unconverged(); got != "1" {
		t.Errorf("%s = %s after an unconverged walk, want 1", metricWalkUnconverged, got)
	}
}

// TestIngestTraceSolverPhases checks a traced ingest decomposes into
// the delta apply, the per-phase solve and the generation swap.
func TestIngestTraceSolverPhases(t *testing.T) {
	var buf bytes.Buffer
	srv := tracedServer(t, &buf)
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, "/admin/ingest",
		strings.NewReader(`{"id":"new1","year":2016,"refs":["a"]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body)
	}
	tr := findTrace(debugTraces(t, h), "/admin/ingest")
	if tr == nil {
		t.Fatal("/admin/ingest trace not recorded")
	}
	for _, name := range []string{
		"ingest.apply", "solve", "solve.prestige", "solve.hetero",
		"generation.build", "swap",
	} {
		if tr.Find(name) == nil {
			t.Errorf("ingest trace missing %s span: %+v", name, tr.Spans)
		}
	}
	// The phase spans nest under solve, not directly under the root.
	if solve, phase := tr.Find("solve"), tr.Find("solve.prestige"); solve != nil && phase != nil &&
		phase.ParentID != solve.SpanID {
		t.Errorf("solve.prestige parent = %q, want solve span %q", phase.ParentID, solve.SpanID)
	}
}

// TestBootSolveTraced checks server construction records a background
// boot.solve trace with per-phase children.
func TestBootSolveTraced(t *testing.T) {
	var buf bytes.Buffer
	srv := tracedServer(t, &buf)
	tr := srv.Tracer().Recent()
	if len(tr) == 0 || tr[len(tr)-1].Root.Name != "boot.solve" {
		t.Fatalf("first trace not boot.solve: %+v", tr)
	}
	boot := tr[len(tr)-1]
	if boot.Find("solve.prestige") == nil || boot.Find("solve.hetero") == nil {
		t.Errorf("boot.solve missing phase spans: %+v", boot.Spans)
	}
}

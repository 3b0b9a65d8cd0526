package serve

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"scholarrank/internal/obs"
)

// TestMetricsEndpoint scrapes /metrics on a ranked server and checks
// the exposition includes every family the acceptance criteria name:
// request-latency histograms, generation-swap and ingest counters,
// and solver iteration/residual gauges from the last solve.
func TestMetricsEndpoint(t *testing.T) {
	h := fixtureServer(t).Handler()
	// Record some traffic first so the /top histogram has samples.
	for i := 0; i < 2; i++ {
		if rec := get(t, h, "/top"); rec.Code != http.StatusOK {
			t.Fatalf("/top status = %d", rec.Code)
		}
	}
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE http_request_duration_seconds histogram",
		`http_request_duration_seconds_count{route="/top"} 2`,
		`http_requests_total{code="2xx",route="/top"} 2`,
		"# TYPE sarserve_generation_swaps_total counter",
		`sarserve_generation_swaps_total{source="ingest"} 0`,
		"sarserve_ingest_batches_applied_total 0",
		"sarserve_ingest_batches_quarantined_total 0",
		"sarserve_warmstart_iterations_saved_total 0",
		"sarserve_ranking_version 1",
		"# TYPE sarserve_solver_iterations gauge",
		"# TYPE sarserve_ranking_staleness_seconds gauge",
		"# TYPE sarserve_solver_extrapolations_total counter",
		"# TYPE sarserve_solver_iterations_saved gauge",
		"# TYPE sarserve_solver_reorder_seconds gauge",
		"# TYPE sarserve_solver_back_edge_fraction gauge",
		"sarserve_solver_back_edge_fraction 0",
		"# TYPE sarserve_corpus_load_seconds gauge",
		"# TYPE sarserve_corpus_load_mode gauge",
		"sarserve_corpus_mmap_bytes 0",
		`sarserve_corpus_load_mode{mode="heap"} 1`,
		`sarserve_corpus_load_mode{mode="mmap"} 0`,
		"# TYPE sarserve_query_shed_total counter",
		"sarserve_query_shed_total 0",
		"sarserve_query_queue_depth 0",
		"sarserve_query_cache_hits_total 0",
		"sarserve_query_cache_misses_total 0",
		"# TYPE sarserve_query_cache_coalesced_total counter",
		"sarserve_query_cache_coalesced_total 0",
		"sarserve_query_cache_entries 0",
		"# TYPE sarserve_related_unconverged_total counter",
		"sarserve_related_unconverged_total 0",
		"# TYPE sarserve_related_walks_cancelled_total counter",
		"sarserve_related_walks_cancelled_total 0",
		"# TYPE go_goroutines gauge",
		"# TYPE go_heap_live_bytes gauge",
		"# TYPE go_gc_pauses_seconds histogram",
		`go_gc_pauses_seconds_bucket{le="+Inf"}`,
		"# TYPE go_sched_latencies_seconds histogram",
		"# TYPE build_info gauge",
		`go_version="`,
		"# TYPE process_start_time_seconds gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Solver gauges must carry the last solve's values, not zeros.
	for _, phase := range []string{"prestige", "hetero"} {
		re := regexp.MustCompile(`sarserve_solver_iterations\{phase="` + phase + `"\} (\d+)`)
		m := re.FindStringSubmatch(out)
		if m == nil || m[1] == "0" {
			t.Errorf("solver iterations gauge for %s missing or zero:\n%s", phase, m)
		}
		if !regexp.MustCompile(`sarserve_solver_residual\{phase="` + phase + `"\} \d`).MatchString(out) {
			t.Errorf("solver residual gauge for %s missing", phase)
		}
	}
}

// TestMetricsAfterIngest checks the swap, ingest and warm-start
// counters move when a delta is ingested over HTTP.
func TestMetricsAfterIngest(t *testing.T) {
	h := fixtureServer(t).Handler()
	req := httptest.NewRequest(http.MethodPost, "/admin/ingest",
		strings.NewReader(`{"id":"new1","year":2016,"refs":["a"]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body)
	}
	out := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`sarserve_generation_swaps_total{source="ingest"} 1`,
		"sarserve_ingest_batches_applied_total 1",
		"sarserve_ranking_version 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics after ingest missing %q", want)
		}
	}
}

// TestRequestIDOnServer checks the serving handler generates and
// echoes correlation ids.
func TestRequestIDOnServer(t *testing.T) {
	h := fixtureServer(t).Handler()
	rec := get(t, h, "/healthz")
	if id := rec.Header().Get(obs.RequestIDHeader); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("generated request id = %q", id)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "trace-me-7")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.RequestIDHeader); got != "trace-me-7" {
		t.Errorf("echoed request id = %q", got)
	}
}

// TestPprofOptIn checks /debug/pprof is absent by default and present
// with EnablePprof.
func TestPprofOptIn(t *testing.T) {
	h := fixtureServer(t).Handler()
	if rec := get(t, h, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof mounted without opt-in: %d", rec.Code)
	}
	srv := fixtureServer(t)
	srv.cfg.EnablePprof = true
	if rec := get(t, srv.Handler(), "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof opt-in status = %d", rec.Code)
	}
}

// TestStatsSurfacesSolverTiming checks /stats carries the per-phase
// wall time and pool occupancy added by the tracing layer.
func TestStatsSurfacesSolverTiming(t *testing.T) {
	rec := get(t, fixtureServer(t).Handler(), "/stats")
	body := rec.Body.String()
	for _, key := range []string{
		"prestige_seconds", "hetero_seconds", "prestige_residual",
		"solver_workers", "solver_pool_sweeps",
		"solver_reorder_seconds", "solver_back_edge_fraction", "solver_extrapolations", "solver_iterations_saved",
		"corpus_mmap_bytes", "corpus_load_mode", "corpus_load_seconds",
	} {
		if !strings.Contains(body, `"`+key+`"`) {
			t.Errorf("/stats missing %q: %s", key, body)
		}
	}
}

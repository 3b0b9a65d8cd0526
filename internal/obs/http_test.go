package obs

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func TestWrapRecordsLatencyAndStatus(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	h := m.Wrap("/top", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("fail") != "" {
			http.Error(w, "nope", http.StatusBadRequest)
			return
		}
		w.Write([]byte("ok"))
	}))
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/top", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/top?fail=1", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("fail status = %d", rec.Code)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`http_request_duration_seconds_count{route="/top"} 4`,
		`http_requests_total{code="2xx",route="/top"} 3`,
		`http_requests_total{code="4xx",route="/top"} 1`,
		`http_in_flight_requests 0`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

func TestWrapEagerFamilies(t *testing.T) {
	// The latency histogram and 2xx counter exist before any request,
	// so a scrape on a fresh server already shows the families.
	reg := NewRegistry()
	NewHTTPMetrics(reg).Wrap("/idle", http.NotFoundHandler())
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`http_request_duration_seconds_count{route="/idle"} 0`,
		`http_requests_total{code="2xx",route="/idle"} 0`,
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("missing %q in:\n%s", line, b.String())
		}
	}
}

func TestInFlightGauge(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	inHandler := make(chan struct{})
	release := make(chan struct{})
	h := m.Wrap("/slow", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(inHandler)
		<-release
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/slow", nil))
	}()
	<-inHandler
	if v := m.inFlight.Value(); v != 1 {
		t.Errorf("in flight during request = %v, want 1", v)
	}
	close(release)
	<-done
	if v := m.inFlight.Value(); v != 0 {
		t.Errorf("in flight after request = %v, want 0", v)
	}
}

func TestRequestIDGenerated(t *testing.T) {
	var seen string
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	id := rec.Header().Get(RequestIDHeader)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("generated id = %q", id)
	}
	if seen != id {
		t.Errorf("context id %q != header id %q", seen, id)
	}
}

func TestRequestIDEchoed(t *testing.T) {
	var seen string
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}))
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set(RequestIDHeader, "client-supplied-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got != "client-supplied-1" {
		t.Errorf("echoed id = %q", got)
	}
	if seen != "client-supplied-1" {
		t.Errorf("context id = %q", seen)
	}
}

// TestRequestIDSanitized checks hostile client ids are replaced by a
// generated id instead of echoed into headers and logs: log-injection
// payloads (newlines, key=value structure), oversize ids, and
// non-token characters all fail the gate; benign ids pass.
func TestRequestIDSanitized(t *testing.T) {
	hostile := []string{
		"evil\nstatus=200",      // log-line injection
		"a b",                   // whitespace
		`x"quote`,               // breaks quoted log formats
		"id=1 level=ERROR",      // key=value spoofing
		strings.Repeat("a", 65), // over the length cap
		"\x00binary",            // control bytes
		"ünïcode",               // non-ASCII
	}
	for _, id := range hostile {
		h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
		req := httptest.NewRequest("GET", "/", nil)
		req.Header.Set(RequestIDHeader, id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get(RequestIDHeader)
		if got == id {
			t.Errorf("hostile id %q echoed verbatim", id)
		}
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
			t.Errorf("hostile id %q not replaced by a generated id (got %q)", id, got)
		}
	}
	for _, id := range []string{"rid-42", "a.b_c-D", strings.Repeat("a", 64)} {
		h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
		req := httptest.NewRequest("GET", "/", nil)
		req.Header.Set(RequestIDHeader, id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if got := rec.Header().Get(RequestIDHeader); got != id {
			t.Errorf("benign id %q rewritten to %q", id, got)
		}
	}
}

func TestMountPprof(t *testing.T) {
	mux := http.NewServeMux()
	MountPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index: status %d body %.80q", rec.Code, rec.Body.String())
	}
}

func TestLoggerComponentTag(t *testing.T) {
	var buf bytes.Buffer
	old := base.Load()
	defer base.Store(old)
	base.Store(slog.New(slog.NewTextHandler(&buf, nil)))
	Logger("serve").Info("hello")
	if !strings.Contains(buf.String(), "component=serve") {
		t.Errorf("component tag missing: %s", buf.String())
	}
}

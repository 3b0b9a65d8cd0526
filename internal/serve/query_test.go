package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
)

// richMeta mirrors the fixture article metadata so tests can compute
// expected filter results independently of the index.
type richMeta struct {
	key    string
	year   int
	author string // "" = none recorded here (all have one)
	venue  string // "" = no venue
}

// richFixture builds a 10-article corpus with two authors, two venues
// and a spread of years, ranked with the default options.
func richFixture(t *testing.T, cfg Config) (*Server, []richMeta) {
	t.Helper()
	b := corpus.NewBuilder()
	a1, _ := b.InternAuthor("alice", "Alice")
	a2, _ := b.InternAuthor("bob", "Bob")
	v1, _ := b.InternVenue("icde", "ICDE")
	v2, _ := b.InternVenue("kdd", "KDD")
	authors := map[string]corpus.AuthorID{"alice": a1, "bob": a2}
	venues := map[string]corpus.VenueID{"icde": v1, "kdd": v2}

	metas := []richMeta{
		{"p0", 2000, "alice", "icde"},
		{"p1", 2002, "bob", "kdd"},
		{"p2", 2004, "alice", "icde"},
		{"p3", 2006, "bob", ""},
		{"p4", 2008, "alice", "kdd"},
		{"p5", 2010, "bob", "icde"},
		{"p6", 2010, "alice", "icde"},
		{"p7", 2012, "bob", "kdd"},
		{"p8", 2014, "alice", ""},
		{"p9", 2014, "bob", "icde"},
	}
	ids := make([]corpus.ArticleID, len(metas))
	for i, m := range metas {
		v := corpus.NoVenue
		if m.venue != "" {
			v = venues[m.venue]
		}
		id, err := b.AddArticle(corpus.ArticleMeta{
			Key: m.key, Year: m.year, Venue: v,
			Authors: []corpus.AuthorID{authors[m.author]},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Older articles gather more citations, with some cross-links so
	// ranks are distinct.
	for i := 1; i < len(ids); i++ {
		for j := 0; j < i; j += 2 {
			if err := b.AddCitation(ids[i], ids[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cfg.Options.Damping == 0 {
		cfg.Options = core.DefaultOptions()
	}
	srv, err := NewWithConfig(b.Freeze(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, metas
}

// rankOrder fetches the full rank order of keys through /top.
func rankOrder(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := get(t, h, "/top?k=100")
	if rec.Code != http.StatusOK {
		t.Fatalf("/top status = %d: %s", rec.Code, rec.Body)
	}
	var out []ArticleView
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(out))
	for i, v := range out {
		keys[i] = v.Key
	}
	return keys
}

// expectFiltered computes the brute-force expected key list for a
// filter over the fixture metadata, in rank order.
func expectFiltered(order []string, metas []richMeta, author, venue string, from, to int) []string {
	byKey := map[string]richMeta{}
	for _, m := range metas {
		byKey[m.key] = m
	}
	var want []string
	for _, k := range order {
		m := byKey[k]
		if author != "" && m.author != author {
			continue
		}
		if venue != "" && m.venue != venue {
			continue
		}
		if m.year < from || m.year > to {
			continue
		}
		want = append(want, k)
	}
	return want
}

func queryKeys(t *testing.T, h http.Handler, url string) ([]string, QueryResponse) {
	t.Helper()
	rec := get(t, h, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s status = %d: %s", url, rec.Code, rec.Body)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(out.Results))
	for _, v := range out.Results {
		keys = append(keys, v.Key)
	}
	return keys, out
}

func TestQueryFilters(t *testing.T) {
	srv, metas := richFixture(t, Config{})
	defer srv.Close()
	h := srv.Handler()
	order := rankOrder(t, h)

	cases := []struct {
		url           string
		author, venue string
		from, to      int
	}{
		{"/query?k=100", "", "", 0, 9999},
		{"/query?author=alice&k=100", "alice", "", 0, 9999},
		{"/query?venue=icde&k=100", "", "icde", 0, 9999},
		{"/query?author=bob&venue=kdd&k=100", "bob", "kdd", 0, 9999},
		{"/query?from=2004&to=2012&k=100", "", "", 2004, 2012},
		{"/query?author=alice&from=2004&to=2010&k=100", "alice", "", 2004, 2010},
		{"/query?venue=icde&from=2010&to=2014&k=100", "", "icde", 2010, 2014},
		{"/query?author=bob&venue=icde&from=2010&to=2014&k=100", "bob", "icde", 2010, 2014},
		{"/query?from=2015&to=2020&k=100", "", "", 2015, 2020}, // empty window
	}
	for _, c := range cases {
		got, resp := queryKeys(t, h, c.url)
		want := expectFiltered(order, metas, c.author, c.venue, c.from, c.to)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s = %v, want %v", c.url, got, want)
		}
		if resp.Count != len(want) || resp.NextCursor != "" {
			t.Errorf("%s count=%d next=%q, want count=%d and no cursor",
				c.url, resp.Count, resp.NextCursor, len(want))
		}
	}
}

func TestQueryPagination(t *testing.T) {
	srv, metas := richFixture(t, Config{})
	defer srv.Close()
	h := srv.Handler()
	order := rankOrder(t, h)
	want := expectFiltered(order, metas, "alice", "", 0, 9999)

	var walked []string
	url := "/query?author=alice&k=2"
	for {
		got, resp := queryKeys(t, h, url)
		walked = append(walked, got...)
		if resp.NextCursor == "" {
			break
		}
		if len(got) != 2 {
			t.Fatalf("non-final page had %d results", len(got))
		}
		url = "/query?author=alice&k=2&cursor=" + resp.NextCursor
	}
	if strings.Join(walked, ",") != strings.Join(want, ",") {
		t.Errorf("paged walk = %v, want %v", walked, want)
	}
}

func TestQueryErrors(t *testing.T) {
	srv, _ := richFixture(t, Config{})
	defer srv.Close()
	h := srv.Handler()
	for url, code := range map[string]int{
		"/query?author=nobody": http.StatusNotFound,
		"/query?venue=nowhere": http.StatusNotFound,
		"/query?from=abc":      http.StatusBadRequest,
		"/query?to=2x":         http.StatusBadRequest,
		"/query?k=0":           http.StatusBadRequest,
		"/query?cursor=!!!":    http.StatusBadRequest,
		"/query?cursor=bm9wZQ": http.StatusBadRequest,
	} {
		if rec := get(t, h, url); rec.Code != code {
			t.Errorf("%s status = %d, want %d", url, rec.Code, code)
		}
	}
}

func TestQueryCacheHit(t *testing.T) {
	srv, _ := richFixture(t, Config{})
	defer srv.Close()
	h := srv.Handler()

	first, _ := queryKeys(t, h, "/query?venue=icde&k=3")
	if srv.metrics.cacheMisses.Value() != 1 || srv.metrics.cacheHits.Value() != 0 {
		t.Fatalf("after first query: hits=%d misses=%d",
			srv.metrics.cacheHits.Value(), srv.metrics.cacheMisses.Value())
	}
	second, _ := queryKeys(t, h, "/query?venue=icde&k=3")
	if srv.metrics.cacheHits.Value() != 1 {
		t.Errorf("second identical query missed the cache")
	}
	if strings.Join(first, ",") != strings.Join(second, ",") {
		t.Errorf("cached response differs: %v vs %v", first, second)
	}
	if srv.cache.Len() == 0 {
		t.Error("cache has no resident entries")
	}
}

// TestQueryCacheInvalidationAcrossSwap is the satellite acceptance
// test: responses cached under one generation must never serve under
// the next version, because the version is part of the cache key.
func TestQueryCacheInvalidationAcrossSwap(t *testing.T) {
	srv, _ := richFixture(t, Config{})
	defer srv.Close()
	h := srv.Handler()

	before, _ := queryKeys(t, h, "/query?k=100")
	missesBefore := srv.metrics.cacheMisses.Value()

	// Ingest a delta: a new article citing p9 heavily reshapes ranks.
	delta := `{"id":"pX","year":2015,"refs":["p9","p7","p5"]}`
	req := httptest.NewRequest(http.MethodPost, "/admin/ingest", strings.NewReader(delta))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body)
	}

	rec2 := get(t, h, "/query?k=100")
	if v := rec2.Header().Get("X-Ranking-Version"); v != "2" {
		t.Fatalf("post-swap version header = %q", v)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Version != 2 {
		t.Errorf("post-swap body version = %d — a stale cached response leaked", out.Version)
	}
	if out.Count != len(before)+1 {
		t.Errorf("post-swap count = %d, want %d", out.Count, len(before)+1)
	}
	if srv.metrics.cacheMisses.Value() != missesBefore+1 {
		t.Errorf("post-swap query did not miss the cache")
	}
}

// TestQueryCursorGoneAfterSwap: a cursor minted under one generation
// is rejected with 410 once the ranking hot-swaps.
func TestQueryCursorGoneAfterSwap(t *testing.T) {
	srv, _ := richFixture(t, Config{})
	defer srv.Close()
	h := srv.Handler()
	_, resp := queryKeys(t, h, "/query?k=3")
	if resp.NextCursor == "" {
		t.Fatal("no cursor on a partial page")
	}
	req := httptest.NewRequest(http.MethodPost, "/admin/ingest",
		strings.NewReader(`{"id":"pY","year":2015,"refs":["p0"]}`))
	h.ServeHTTP(httptest.NewRecorder(), req)
	if rec := get(t, h, "/query?k=3&cursor="+resp.NextCursor); rec.Code != http.StatusGone {
		t.Errorf("stale cursor status = %d, want 410", rec.Code)
	}
}

func TestETagRevalidation(t *testing.T) {
	srv, _ := richFixture(t, Config{})
	defer srv.Close()
	h := srv.Handler()

	rec := get(t, h, "/top?k=3")
	etag := rec.Header().Get("ETag")
	if etag != `"1"` {
		t.Fatalf("ETag = %q", etag)
	}
	if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "no-cache") {
		t.Errorf("Cache-Control = %q", cc)
	}

	for _, inm := range []string{etag, "*", `W/` + etag, `"0", ` + etag} {
		req := httptest.NewRequest(http.MethodGet, "/top?k=3", nil)
		req.Header.Set("If-None-Match", inm)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q status = %d, want 304", inm, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("304 carried a body")
		}
	}

	// A non-matching validator serves the full payload.
	req := httptest.NewRequest(http.MethodGet, "/top?k=3", nil)
	req.Header.Set("If-None-Match", `"0"`)
	recMiss := httptest.NewRecorder()
	h.ServeHTTP(recMiss, req)
	if recMiss.Code != http.StatusOK || recMiss.Body.Len() == 0 {
		t.Errorf("stale validator status = %d", recMiss.Code)
	}

	// After a hot swap the validator changes, so held ETags revalidate
	// to fresh bodies.
	ingest := httptest.NewRequest(http.MethodPost, "/admin/ingest",
		strings.NewReader(`{"id":"pZ","year":2015,"refs":["p0"]}`))
	h.ServeHTTP(httptest.NewRecorder(), ingest)
	req = httptest.NewRequest(http.MethodGet, "/top?k=3", nil)
	req.Header.Set("If-None-Match", etag)
	recSwap := httptest.NewRecorder()
	h.ServeHTTP(recSwap, req)
	if recSwap.Code != http.StatusOK {
		t.Errorf("post-swap revalidation status = %d, want 200", recSwap.Code)
	}
	if got := recSwap.Header().Get("ETag"); got != `"2"` {
		t.Errorf("post-swap ETag = %q", got)
	}
}

// TestParseKEdgeCases covers the satellite checklist: k=0, k beyond
// the configured bound, k beyond n (clamped, not an error), and
// non-integer k — plus the bound being configurable.
func TestParseKEdgeCases(t *testing.T) {
	srv, metas := richFixture(t, Config{MaxTopK: 5})
	defer srv.Close()
	h := srv.Handler()

	for _, bad := range []string{"/top?k=0", "/top?k=-3", "/top?k=1.5", "/top?k=abc", "/top?k=6"} {
		rec := get(t, h, bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", bad, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "1..5") {
			t.Errorf("%s error does not cite the configured bound: %s", bad, rec.Body)
		}
	}
	// k within the bound but beyond n clamps to n.
	srv2, _ := richFixture(t, Config{MaxTopK: 100})
	defer srv2.Close()
	rec := get(t, srv2.Handler(), "/top?k=50")
	var out []ArticleView
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(metas) {
		t.Errorf("k>n returned %d, want %d", len(out), len(metas))
	}
	// The default bound still applies when unconfigured.
	srv3, _ := richFixture(t, Config{})
	defer srv3.Close()
	if rec := get(t, srv3.Handler(), "/top?k=1001"); rec.Code != http.StatusBadRequest {
		t.Errorf("default bound: k=1001 status = %d", rec.Code)
	}
	if rec := get(t, srv3.Handler(), "/top?k=1000"); rec.Code != http.StatusOK {
		t.Errorf("default bound: k=1000 status = %d", rec.Code)
	}
}

// TestAdmissionShed exercises the overload path end to end: with one
// admission slot held, a read request must shed with 503 and a
// Retry-After hint, and the shed counter must move.
func TestAdmissionShed(t *testing.T) {
	srv, _ := richFixture(t, Config{MaxInflight: 1, QueueTimeout: 5 * time.Millisecond})
	defer srv.Close()
	h := srv.Handler()

	// Take the only slot directly, so the next request queues and
	// sheds deterministically.
	if !srv.limiter.Acquire(httptest.NewRequest(http.MethodGet, "/", nil).Context()) {
		t.Fatal("could not take the admission slot")
	}
	rec := get(t, h, "/top")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if srv.metrics.shed.Value() != 1 {
		t.Errorf("shed counter = %d", srv.metrics.shed.Value())
	}
	srv.limiter.Release()
	if rec := get(t, h, "/top"); rec.Code != http.StatusOK {
		t.Errorf("post-release status = %d", rec.Code)
	}
	// Admin and health endpoints are never shed.
	srv.limiter.Acquire(httptest.NewRequest(http.MethodGet, "/", nil).Context())
	defer srv.limiter.Release()
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz shed: %d", rec.Code)
	}
}

func TestQueryStatsKeys(t *testing.T) {
	srv, _ := richFixture(t, Config{})
	defer srv.Close()
	h := srv.Handler()
	queryKeys(t, h, "/query?k=2")
	body := get(t, h, "/stats").Body.String()
	for _, key := range []string{
		"max_top_k", "query_cache_entries", "query_cache_hits",
		"query_cache_misses", "query_cache_coalesced", "query_shed", "query_queue_depth",
	} {
		if !strings.Contains(body, `"`+key+`"`) {
			t.Errorf("/stats missing %q", key)
		}
	}
}

// sink prevents the fmt import from being unused if cases shrink.
var _ = fmt.Sprintf

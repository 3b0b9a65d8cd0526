package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/rank"
	"scholarrank/internal/sparse"
)

// herdFixture is a 3000-article generated corpus behind two servers:
// srv, whose /related walks stop after their first sweep until the
// test releases them and then take at least pace per sweep, and ref,
// which answers the same requests uncontended. Every trace is
// retained.
type herdFixture struct {
	t        *testing.T
	store    *corpus.Store
	srv, ref *Server
	h        http.Handler
	started  chan struct{} // one send per walk that finishes its first sweep
	release  chan struct{}
	pace     time.Duration
}

func newHerdFixture(t *testing.T, pace time.Duration) *herdFixture {
	t.Helper()
	cfg := gen.NewDefaultConfig(3000)
	cfg.Seed = 5
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := func() *Server {
		srv, err := NewWithConfig(c.Store, Config{Options: core.DefaultOptions(), TraceThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	f := &herdFixture{t: t, store: c.Store, srv: boot(), ref: boot(),
		started: make(chan struct{}, 1), release: make(chan struct{}), pace: pace}
	hook := func(ev sparse.IterEvent) {
		if ev.Iteration == 1 {
			f.started <- struct{}{}
			<-f.release
		}
		time.Sleep(f.pace)
	}
	g := f.srv.gen.Load()
	if g.related, err = rank.NewRelatedIndex(g.net, rank.RelatedOptions{Iter: sparse.IterOptions{OnIteration: hook}}); err != nil {
		t.Fatal(err)
	}
	f.h = f.srv.Handler()
	return f
}

// path is the /related request for article id.
func (f *herdFixture) path(id int) string {
	return "/related?k=10&key=" + f.store.Key(corpus.ArticleID(id))
}

// serve runs one request under ctx on its own goroutine.
func (f *herdFixture) serve(ctx context.Context, path string) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		f.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		out <- rec
	}()
	return out
}

// awaitWalk waits for a walk to finish its first sweep.
func (f *herdFixture) awaitWalk() {
	f.t.Helper()
	select {
	case <-f.started:
	case <-time.After(5 * time.Second):
		f.t.Fatal("no walk started")
	}
}

// awaitFollowers waits until n requests wait on another request's
// computation. Nothing outside the cache shows a request joining a
// flight, so it is read from a goroutine dump: a follower is parked in
// the select of query.Cache.Do.
func (f *herdFixture) awaitFollowers(n int) {
	f.t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		k := runtime.Stack(buf, true)
		for k == len(buf) {
			buf = make([]byte, 2*len(buf))
			k = runtime.Stack(buf, true)
		}
		waiting := 0
		for _, g := range strings.Split(string(buf[:k]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "internal/query.(*Cache).Do(") {
				waiting++
			}
		}
		if waiting == n {
			return
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("%d requests wait on a flight, want %d", waiting, n)
		}
	}
}

// walkSpans lists the walk spans of every retained /related trace.
func (f *herdFixture) walkSpans() []map[string]any {
	var out []map[string]any
	for _, tr := range f.srv.Tracer().Recent() {
		if tr.Root.Name != "/related" {
			continue
		}
		for _, sp := range tr.Spans {
			if sp.Name == "walk" {
				out = append(out, sp.Attrs)
			}
		}
	}
	return out
}

// counters reads the response-cache and walk counters.
func (f *herdFixture) counters() (hits, misses, coalesced, cancelled, unconverged uint64) {
	m := f.srv.metrics
	return m.cacheHits.Value(), m.cacheMisses.Value(), m.cacheCoalesced.Value(), m.walksCancelled.Value(), m.walkUnconverged.Value()
}

// TestRelatedHerdRunsOneWalk: eight concurrent identical cold /related
// requests run one walk between them, which stops once its top 10 is
// certified, every body is byte-identical to an uncontended answer, and each request is counted exactly once as a
// hit, a miss or coalesced — with one miss. A coalesced request's cache
// span covers its wait and says so.
func TestRelatedHerdRunsOneWalk(t *testing.T) {
	f := newHerdFixture(t, 0)
	path := f.path(100)
	want := get(t, f.ref.Handler(), path)
	if want.Code != http.StatusOK {
		t.Fatalf("uncontended status = %d: %s", want.Code, want.Body)
	}
	const herd = 8
	var replies []<-chan *httptest.ResponseRecorder
	for i := 0; i < herd; i++ {
		replies = append(replies, f.serve(context.Background(), path))
	}
	f.awaitWalk()
	f.awaitFollowers(herd - 1)
	const hold = 20 * time.Millisecond // every follower waits at least this long
	time.Sleep(hold)
	close(f.release)
	for i, ch := range replies {
		rec := <-ch
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("request %d: status %d, body equal to the uncontended answer: %v", i, rec.Code, bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()))
		}
	}
	if walks := f.walkSpans(); len(walks) != 1 || walks[0]["certified"] != true {
		t.Errorf("walk spans = %v for %d identical requests, want one walk stopped by its certificate", walks, herd)
	}
	hits, misses, coalesced, _, _ := f.counters()
	if hits != 0 || misses != 1 || coalesced != herd-1 {
		t.Errorf("hits=%d misses=%d coalesced=%d, want 0, 1 and %d", hits, misses, coalesced, herd-1)
	}
	waited := 0
	for _, tr := range f.srv.Tracer().Recent() {
		if cache := tr.Find("cache"); tr.Root.Name == "/related" && cache != nil && cache.Attrs["coalesced"] == true {
			waited++
			if cache.DurationMS < float64(hold)/float64(time.Millisecond) {
				t.Errorf("a coalesced cache span lasted %.2f ms, less than the wait", cache.DurationMS)
			}
		}
	}
	if waited != herd-1 {
		t.Errorf("%d traces carry a coalesced cache span, want %d", waited, herd-1)
	}
	if body := get(t, f.srv.Handler(), "/stats").Body.String(); !strings.Contains(body, `"query_cache_coalesced":7`) {
		t.Errorf("/stats lacks query_cache_coalesced 7: %s", body)
	}
}

// TestRelatedLeaderHangUp: the request that started a walk hangs up
// while another waits on it; the walk runs to the end for the one still
// waiting, which gets the uncontended answer.
func TestRelatedLeaderHangUp(t *testing.T) {
	f := newHerdFixture(t, time.Millisecond)
	path := f.path(200)
	want := get(t, f.ref.Handler(), path)
	leaderCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	leader := f.serve(leaderCtx, path)
	f.awaitWalk()
	follower := f.serve(context.Background(), path)
	f.awaitFollowers(1)
	hangUp()
	close(f.release)
	rec := <-follower
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("follower: status %d, body equal to the uncontended answer: %v", rec.Code, bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()))
	}
	<-leader
	_, misses, coalesced, cancelled, _ := f.counters()
	if misses != 1 || coalesced != 1 || cancelled != 0 {
		t.Errorf("misses=%d coalesced=%d cancelled=%d, want one walk, shared, never cancelled", misses, coalesced, cancelled)
	}
	walks := f.walkSpans()
	if len(walks) != 1 || walks[0]["converged"] != true || walks[0]["cancelled"] != false {
		t.Errorf("walk spans = %v, want one converged walk", walks)
	}
}

// TestRelatedEveryoneHangsUp: when every request waiting on a walk has
// hung up, the walk stops early, caches nothing and is counted as
// cancelled — not as a server error and not as unconverged — and the
// next request computes the walk afresh.
func TestRelatedEveryoneHangsUp(t *testing.T) {
	f := newHerdFixture(t, time.Millisecond)
	path := f.path(300)
	want := get(t, f.ref.Handler(), path)
	full := f.ref.Tracer().Recent()[0].Find("walk")
	if full == nil {
		t.Fatal("the uncontended request has no walk span")
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	leader := f.serve(ctxA, path)
	f.awaitWalk()
	follower := f.serve(ctxB, path)
	f.awaitFollowers(1)
	entries := f.srv.cache.Len()
	cancelB()
	cancelA()
	close(f.release)
	if rec := <-follower; rec.Code != statusClientClosed {
		t.Errorf("abandoned follower status = %d, want %d", rec.Code, statusClientClosed)
	}
	if rec := <-leader; rec.Code != statusClientClosed {
		t.Errorf("abandoned leader status = %d, want %d", rec.Code, statusClientClosed)
	}
	walks := f.walkSpans()
	if len(walks) != 1 || walks[0]["cancelled"] != true {
		t.Fatalf("walk spans = %v, want one cancelled walk", walks)
	}
	if iters, fullIters := walks[0]["iters"].(int), full.Attrs["iters"].(int); iters >= fullIters {
		t.Errorf("cancelled walk ran %d sweeps, as many as the uncontended one (%d)", iters, fullIters)
	}
	if n := f.srv.cache.Len(); n != entries {
		t.Errorf("cache entries %d -> %d: the abandoned walk was cached", entries, n)
	}
	_, _, _, cancelled, unconverged := f.counters()
	if cancelled != 1 || unconverged != 0 {
		t.Errorf("cancelled=%d unconverged=%d, want 1 and 0", cancelled, unconverged)
	}
	metrics := get(t, f.srv.Handler(), "/metrics").Body.String()
	if strings.Contains(metrics, `http_requests_total{code="5xx",route="/related"}`) {
		t.Errorf("an abandoned walk was counted as a server error")
	}
	rec := <-f.serve(context.Background(), path)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("after the abandoned walk: status %d, body equal to the uncontended answer: %v", rec.Code, bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()))
	}
	if _, misses, _, _, _ := f.counters(); misses != 2 {
		t.Errorf("misses = %d, want the next request to compute again", misses)
	}
}

// TestRelatedFlightAcrossHotSwap: a request made after a hot swap does
// not join a walk still running on the previous generation, because the
// cache key carries the ranking version.
func TestRelatedFlightAcrossHotSwap(t *testing.T) {
	f := newHerdFixture(t, 0)
	path := f.path(400)
	old := f.serve(context.Background(), path)
	f.awaitWalk()
	delta := `{"id":"swap1","year":2030,"refs":["` + f.store.Key(400) + `"]}`
	if rec := post(t, f.h, "/admin/ingest", delta); rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body)
	}
	var rec *httptest.ResponseRecorder
	select {
	case rec = <-f.serve(context.Background(), path):
	case <-time.After(5 * time.Second):
		t.Fatal("a request at the new version waited on the old version's walk")
	}
	if rec.Code != http.StatusOK || rec.Header().Get("X-Ranking-Version") != "2" {
		t.Errorf("new-version request: status %d, version %q", rec.Code, rec.Header().Get("X-Ranking-Version"))
	}
	close(f.release)
	if rec := <-old; rec.Code != http.StatusOK || rec.Header().Get("X-Ranking-Version") != "1" {
		t.Errorf("old-version request: status %d, version %q", rec.Code, rec.Header().Get("X-Ranking-Version"))
	}
	if _, misses, coalesced, _, _ := f.counters(); misses != 2 || coalesced != 0 {
		t.Errorf("misses=%d coalesced=%d, want two flights and no coalescing", misses, coalesced)
	}
}

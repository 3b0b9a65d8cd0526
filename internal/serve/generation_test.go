package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/live"
	"scholarrank/internal/sparse"
)

// liveFixture builds a ranked server and hands back the store so
// tests can cross-check snapshots against it.
func liveFixture(t *testing.T, cfg Config) (*corpus.Store, *Server) {
	t.Helper()
	b := corpus.NewBuilder()
	au, _ := b.InternAuthor("au", "Author")
	ids := make([]corpus.ArticleID, 0, 6)
	for i, year := range []int{1998, 2002, 2006, 2010, 2012, 2014} {
		id, err := b.AddArticle(corpus.ArticleMeta{
			Key: string(rune('a' + i)), Title: "T", Year: year,
			Venue: corpus.NoVenue, Authors: []corpus.AuthorID{au},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := 0; j < i; j += 2 {
			if err := b.AddCitation(ids[i], ids[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := b.Freeze()
	cfg.Options = core.DefaultOptions()
	srv, err := NewWithConfig(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return s, srv
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body, err)
	}
	return v
}

// TestIngestSwapsGeneration is the end-to-end acceptance path: a
// running server receives a citation delta over /admin/ingest and the
// served scores and version advance without a restart.
func TestIngestSwapsGeneration(t *testing.T) {
	_, srv := liveFixture(t, Config{})
	h := srv.Handler()

	before := decodeBody[ArticleView](t, get(t, h, "/article?key=a"))
	health := decodeBody[map[string]any](t, get(t, h, "/healthz"))
	if health["version"].(float64) != 1 || health["source"] != "solve" {
		t.Fatalf("initial healthz = %v", health)
	}

	// Two new articles, both citing "a"; one also cites forward.
	delta := `{"id":"n1","title":"New","year":2015,"venue":"icde","authors":["bob"],"refs":["a","n2"]}
{"id":"n2","year":2016,"refs":["a","b"]}`
	rec := post(t, h, "/admin/ingest", delta)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body)
	}
	resp := decodeBody[map[string]any](t, rec)
	if resp["new_articles"].(float64) != 2 || resp["new_citations"].(float64) != 4 {
		t.Errorf("ingest response = %v", resp)
	}
	if resp["version"].(float64) != 2 || rec.Header().Get("X-Ranking-Version") != "2" {
		t.Errorf("ingest version = %v, header %q", resp["version"], rec.Header().Get("X-Ranking-Version"))
	}

	after := decodeBody[ArticleView](t, get(t, h, "/article?key=a"))
	if after.Importance == before.Importance {
		t.Error("importance of cited article unchanged after ingest")
	}
	if rec := get(t, h, "/article?key=n2"); rec.Code != http.StatusOK {
		t.Errorf("new article not served: %d", rec.Code)
	}
	health = decodeBody[map[string]any](t, get(t, h, "/healthz"))
	if health["version"].(float64) != 2 || health["source"] != "ingest" {
		t.Errorf("healthz after ingest = %v", health)
	}
	stats := decodeBody[map[string]any](t, get(t, h, "/stats"))
	if stats["articles"].(float64) != 8 || stats["version"].(float64) != 2 {
		t.Errorf("stats after ingest = %v", stats)
	}
}

// TestRetiredGenerationsReleaseWorkers checks a hot swap leaves nothing
// parked behind: every retired generation closes its related index's
// worker pool (NumCPU-1 goroutines), so the goroutine count stays flat
// across ingests.
func TestRetiredGenerationsReleaseWorkers(t *testing.T) {
	_, srv := liveFixture(t, Config{})
	ingest := func(i int) {
		t.Helper()
		delta := fmt.Sprintf(`{"id":"w%d","year":2016,"refs":["a"]}`, i)
		if _, err := srv.Ingest(context.Background(), strings.NewReader(delta)); err != nil {
			t.Fatal(err)
		}
	}
	ingest(0) // the first swap settles whatever starts lazily
	base := runtime.NumGoroutine()
	const swaps = 8
	for i := 1; i <= swaps; i++ {
		ingest(i)
	}
	// Workers exit asynchronously once their pool is closed; the count
	// itself is the only observable event.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after %d more swaps, %d before: retired generations keep workers parked", n, swaps, base)
	}
}

// TestServerCloseReleasesWorkers checks that closed servers leave no
// goroutines parked behind, whichever constructor built them and
// however many generations they swapped: the only goroutines a solve
// or a /related walk may leave are the process-wide sparse helpers,
// which are started before the baseline is taken.
func TestServerCloseReleasesWorkers(t *testing.T) {
	sparse.NewPool(0).Run(runtime.GOMAXPROCS(0), func(int) {})
	// Goroutines of earlier tests may still be exiting; a baseline that
	// counts them would hide a leak of the same size.
	base := runtime.NumGoroutine()
	for settled := 0; settled < 3; {
		time.Sleep(10 * time.Millisecond)
		if now := runtime.NumGoroutine(); now == base {
			settled++
		} else {
			base, settled = now, 0
		}
	}

	store, solved := liveFixture(t, Config{})
	replica, err := NewFromSnapshot(store.Thaw().Freeze(), solved.Snapshot(), Config{Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := newFromScores(store.Thaw().Freeze(), solved.gen.Load().scores)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		delta := fmt.Sprintf(`{"id":"c%d","year":2016,"refs":["a"]}`, i)
		if _, err := solved.Ingest(context.Background(), strings.NewReader(delta)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Server{solved, replica, wrapped} {
		s.Close()
	}

	limit := base + runtime.GOMAXPROCS(0) - 1
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > limit && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > limit {
		t.Errorf("%d goroutines after closing three servers, limit %d (%d before + GOMAXPROCS-1)", n, limit, base)
	}
}

func TestIngestNoopAndErrors(t *testing.T) {
	_, srv := liveFixture(t, Config{})
	h := srv.Handler()

	// A delta that is already fully known must not swap generations.
	rec := post(t, h, "/admin/ingest", `{"id":"b","refs":["a"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("noop ingest status = %d: %s", rec.Code, rec.Body)
	}
	resp := decodeBody[map[string]any](t, rec)
	if resp["noop"] != true || resp["version"].(float64) != 1 {
		t.Errorf("noop ingest = %v", resp)
	}

	// A malformed delta is rejected and leaves the generation alone.
	if rec := post(t, h, "/admin/ingest", `{"year":2016}`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ingest status = %d", rec.Code)
	}
	if srv.Version() != 1 {
		t.Errorf("version = %d after rejected ingest", srv.Version())
	}
}

func TestReloadForcesResolve(t *testing.T) {
	_, srv := liveFixture(t, Config{})
	rec := post(t, srv.Handler(), "/admin/reload", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status = %d: %s", rec.Code, rec.Body)
	}
	if srv.Version() != 2 {
		t.Errorf("version = %d after reload, want 2", srv.Version())
	}
	if g := srv.gen.Load(); g.source != "reload" {
		t.Errorf("source = %q after reload", g.source)
	}
}

// TestAdminSnapshotBootstrap downloads the served snapshot and boots
// a second server from it — the replica warm-boot path.
func TestAdminSnapshotBootstrap(t *testing.T) {
	store, srv := liveFixture(t, Config{})
	rec := get(t, srv.Handler(), "/admin/snapshot")
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status = %d", rec.Code)
	}
	snap, err := live.ReadSnapshot(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 1 || snap.Articles != store.NumArticles() {
		t.Fatalf("snapshot header = %+v", snap)
	}

	replica, err := NewFromSnapshot(store.Thaw().Freeze(), snap, Config{Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replica.Close)
	a := decodeBody[ArticleView](t, get(t, srv.Handler(), "/article?key=a"))
	b := decodeBody[ArticleView](t, get(t, replica.Handler(), "/article?key=a"))
	if a.Importance != b.Importance || a.Rank != b.Rank {
		t.Errorf("replica serves %+v, primary %+v", b, a)
	}
	health := decodeBody[map[string]any](t, get(t, replica.Handler(), "/healthz"))
	if health["source"] != "snapshot" {
		t.Errorf("replica healthz = %v", health)
	}

	// A replica can take live updates too: its engine starts lazily.
	if _, err := replica.Ingest(context.Background(), strings.NewReader(`{"id":"r1","year":2016,"refs":["a"]}`)); err != nil {
		t.Fatal(err)
	}
	if replica.Version() != 2 {
		t.Errorf("replica version = %d after ingest", replica.Version())
	}
}

// TestSnapshotBootFingerprint: the snapshot boot hashes the corpus
// once, in Matches, and the generation carries that fingerprint, so
// /stats reports the snapshot's. A rebuild on the replica hashes its
// new corpus itself.
func TestSnapshotBootFingerprint(t *testing.T) {
	store, srv := liveFixture(t, Config{})
	snap := srv.Snapshot()
	replica, err := NewFromSnapshot(store.Thaw().Freeze(), snap, Config{Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replica.Close)
	fp := func(s *Server) string {
		return decodeBody[map[string]any](t, get(t, s.Handler(), "/stats"))["corpus_fingerprint"].(string)
	}
	if got, want := fp(replica), fmt.Sprintf("%016x", snap.Fingerprint); got != want {
		t.Errorf("replica /stats fingerprint = %s, snapshot's = %s", got, want)
	}
	if got, want := fp(replica), fp(srv); got != want {
		t.Errorf("replica /stats fingerprint = %s, primary's = %s", got, want)
	}
	if _, err := replica.Ingest(context.Background(), strings.NewReader(`{"id":"r1","year":2016,"refs":["a"]}`)); err != nil {
		t.Fatal(err)
	}
	if got, want := fp(replica), fmt.Sprintf("%016x", live.Fingerprint(replica.gen.Load().store)); got != want {
		t.Errorf("after ingest /stats fingerprint = %s, corpus hashes to %s", got, want)
	}
}

func TestNewFromSnapshotRejectsMismatch(t *testing.T) {
	store, srv := liveFixture(t, Config{})
	snap := srv.Snapshot()
	db := store.Thaw()
	if _, err := db.AddArticle(corpus.ArticleMeta{Key: "x", Year: 2016, Venue: corpus.NoVenue}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromSnapshot(db.Freeze(), snap, Config{}); !errors.Is(err, live.ErrFingerprint) {
		t.Errorf("mismatched corpus: err = %v, want ErrFingerprint", err)
	}
}

// TestConcurrentHotSwap hammers the read endpoints from several
// goroutines while generations swap underneath (run under -race).
// Every response must be internally consistent: ranks contiguous,
// importance non-increasing, and the version header well-formed — a
// torn read mixing two generations would break those invariants.
func TestConcurrentHotSwap(t *testing.T) {
	_, srv := liveFixture(t, Config{})
	h := srv.Handler()
	const readers, swaps = 4, 6

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, h, "/top?k=5")
				if rec.Code != http.StatusOK {
					errc <- fmt.Errorf("/top status %d", rec.Code)
					return
				}
				if _, err := strconv.ParseInt(rec.Header().Get("X-Ranking-Version"), 10, 64); err != nil {
					errc <- fmt.Errorf("bad version header: %v", err)
					return
				}
				var top []ArticleView
				if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
					errc <- fmt.Errorf("/top decode: %v", err)
					return
				}
				for p, v := range top {
					if v.Rank != p+1 {
						errc <- fmt.Errorf("rank %d at position %d", v.Rank, p)
						return
					}
					if p > 0 && v.Importance > top[p-1].Importance {
						errc <- fmt.Errorf("importance not monotone at %d", p)
						return
					}
				}
				if rec := get(t, h, "/article?key=a"); rec.Code != http.StatusOK {
					errc <- fmt.Errorf("/article status %d", rec.Code)
					return
				}
			}
		}()
	}

	for i := 0; i < swaps; i++ {
		delta := fmt.Sprintf(`{"id":"w%d","year":2016,"refs":["a","b"]}`, i)
		if _, err := srv.Ingest(context.Background(), strings.NewReader(delta)); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := srv.Version(); got != swaps+1 {
		t.Errorf("version = %d after %d swaps", got, swaps)
	}
}

// TestSpoolRefresher drops delta files into a watched directory and
// waits for the background refresher to ingest them, quarantining the
// malformed one.
func TestSpoolRefresher(t *testing.T) {
	dir := t.TempDir()
	_, srv := liveFixture(t, Config{SpoolDir: dir, RefreshInterval: 2 * time.Millisecond})

	writeSpool := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSpool("001.jsonl", `{"id":"s1","year":2015,"refs":["a"]}`)
	writeSpool("002-bad.jsonl", `{"id":`)
	writeSpool("003.jsonl", `{"id":"s2","year":2016,"refs":["s1"]}`)

	deadline := time.Now().Add(5 * time.Second)
	for srv.Version() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Version() < 2 {
		t.Fatal("refresher never swapped a generation")
	}
	g := srv.gen.Load()
	if g.store.NumArticles() != 8 {
		t.Errorf("articles = %d after spool ingest, want 8", g.store.NumArticles())
	}
	if _, err := os.Stat(filepath.Join(dir, "001.jsonl.done")); err != nil {
		t.Errorf("001 not marked done: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "002-bad.jsonl.err")); err != nil {
		t.Errorf("bad file not quarantined: %v", err)
	}
	srv.Close() // stop the refresher before the spool dir is removed
}

// TestSpoolDebounce verifies a freshly written batch is held back
// until it has been quiet for the debounce window.
func TestSpoolDebounce(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	clock := now
	_, srv := liveFixture(t, Config{SpoolDir: dir, Clock: func() time.Time { return clock }})
	if err := os.WriteFile(filepath.Join(dir, "001.jsonl"),
		[]byte(`{"id":"d1","year":2016,"refs":["a"]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	srv.mu.Lock()
	_, store, _, err := srv.drainSpoolLocked(time.Hour)
	srv.mu.Unlock()
	if err != nil || store != nil {
		t.Fatalf("young batch drained: store=%v err=%v", store, err)
	}

	clock = now.Add(2 * time.Hour)
	srv.mu.Lock()
	stats, store, _, err := srv.drainSpoolLocked(time.Hour)
	srv.mu.Unlock()
	if err != nil || store == nil {
		t.Fatalf("settled batch not drained: err=%v", err)
	}
	if stats.NewArticles != 1 || store.NumArticles() != 7 {
		t.Errorf("drain stats = %+v, articles = %d", stats, store.NumArticles())
	}
}

// TestSpoolDeltaPendingUntilServed checks a spool delta is marked done,
// and counted applied, only once the generation serving it has
// swapped in: a failed rebuild leaves the file pending and the counter
// still, and the next refresh serves the delta.
func TestSpoolDeltaPendingUntilServed(t *testing.T) {
	dir := t.TempDir()
	_, srv := liveFixture(t, Config{SpoolDir: dir})
	srv.cfg.ScorerOpts = core.ScorerOptions{"no_such_option": 1}
	path := filepath.Join(dir, "001.jsonl")
	if err := os.WriteFile(path, []byte(`{"id":"p1","year":2016,"refs":["a"]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	srv.refreshOnce(0)
	if v := srv.Version(); v != 1 {
		t.Fatalf("failed rebuild swapped a generation: version %d", v)
	}
	if pending, err := live.PendingDeltas(dir); err != nil || len(pending) != 1 || pending[0].Path != path {
		t.Fatalf("after a failed rebuild the delta is not pending: %v %v", pending, err)
	}
	if n := srv.metrics.ingestApplied.Value(); n != 0 {
		t.Errorf("batches applied = %d after a failed rebuild, want 0", n)
	}

	srv.cfg.ScorerOpts = nil
	srv.refreshOnce(0)
	if v := srv.Version(); v != 2 {
		t.Fatalf("version = %d after the retried refresh, want 2", v)
	}
	if _, ok := srv.gen.Load().store.ArticleByKey("p1"); !ok {
		t.Error("retried refresh does not serve the delta")
	}
	if _, err := os.Stat(path + ".done"); err != nil {
		t.Errorf("served delta not marked done: %v", err)
	}
	if n := srv.metrics.ingestApplied.Value(); n != 1 {
		t.Errorf("batches applied = %d after the served refresh, want 1", n)
	}
}

// TestIngestCitationOnlyDeltaSwaps checks a delta that adds citations
// between known articles, and no article, is not empty: it swaps in a
// generation with the new edge.
func TestIngestCitationOnlyDeltaSwaps(t *testing.T) {
	store, srv := liveFixture(t, Config{})
	stats, err := srv.Ingest(context.Background(), strings.NewReader(`{"id":"f","refs":["b"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewArticles != 0 || stats.NewCitations != 1 || stats.Empty() {
		t.Fatalf("delta stats = %+v, want one new citation", stats)
	}
	g := srv.gen.Load()
	if g.version != 2 || g.store.NumCitations() != store.NumCitations()+1 {
		t.Errorf("version %d with %d citations, want version 2 with %d",
			g.version, g.store.NumCitations(), store.NumCitations()+1)
	}
}

// TestIngestCarriesKeyIndex checks the key index a generation inherits
// from the one before: across ingests and a rejected delta, every old
// and new article, author and venue key resolves to its id, the first
// lookup on a new generation builds nothing, and the keys of the
// rejected delta stay unknown.
func TestIngestCarriesKeyIndex(t *testing.T) {
	cfg := gen.NewDefaultConfig(3000)
	cfg.Seed = 11
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(c.Store, Config{Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := srv.Handler()
	old := c.Store.Key(0)
	ingest := func(round int) {
		t.Helper()
		delta := fmt.Sprintf(`{"id":"new%d","year":2030,"venue":"venue%d","authors":["author%d","%s"],"refs":[%q]}`,
			round, round, round, c.Store.Author(0).Key, old)
		if _, err := srv.Ingest(context.Background(), strings.NewReader(delta)); err != nil {
			t.Fatal(err)
		}
		store := srv.gen.Load().store
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id, ok := store.ArticleByKey(fmt.Sprintf("new%d", round))
		_, aok := store.AuthorByKey(fmt.Sprintf("author%d", round))
		_, vok := store.VenueByKey(fmt.Sprintf("venue%d", round))
		runtime.ReadMemStats(&after)
		if !ok || !aok || !vok || int(id) != store.NumArticles()-1 {
			t.Fatalf("round %d: new keys resolve to %d/%v, author %v, venue %v", round, id, ok, aok, vok)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(4*store.NumArticles()) {
			t.Errorf("round %d: first lookups on the new generation allocated %d bytes", round, grew)
		}
	}
	ingest(1)
	ingest(2)
	poisoned := `{"id":"rejected","year":2030,"venue":"rejected-venue","authors":["rejected-author"]}
{"id":`
	if rec := post(t, h, "/admin/ingest", poisoned); rec.Code != http.StatusBadRequest {
		t.Fatalf("poisoned delta: status %d", rec.Code)
	}
	ingest(3)

	store := srv.gen.Load().store
	if got, want := store.NumArticles(), c.Store.NumArticles()+3; got != want {
		t.Fatalf("%d articles after three ingests, want %d", got, want)
	}
	for i := 0; i < store.NumArticles(); i++ {
		if id, ok := store.ArticleByKey(store.Key(corpus.ArticleID(i))); !ok || int(id) != i {
			t.Fatalf("article %d (%q) resolves to %d, %v", i, store.Key(corpus.ArticleID(i)), id, ok)
		}
	}
	for i := 0; i < store.NumAuthors(); i++ {
		if id, ok := store.AuthorByKey(store.Author(corpus.AuthorID(i)).Key); !ok || int(id) != i {
			t.Fatalf("author %d resolves to %d, %v", i, id, ok)
		}
	}
	for i := 0; i < store.NumVenues(); i++ {
		if id, ok := store.VenueByKey(store.Venue(corpus.VenueID(i)).Key); !ok || int(id) != i {
			t.Fatalf("venue %d resolves to %d, %v", i, id, ok)
		}
	}
	if _, ok := store.ArticleByKey("rejected"); ok {
		t.Error("the rejected delta's article resolves")
	}
	if _, ok := store.AuthorByKey("rejected-author"); ok {
		t.Error("the rejected delta's author resolves")
	}
	if _, ok := store.VenueByKey("rejected-venue"); ok {
		t.Error("the rejected delta's venue resolves")
	}
	for _, key := range []string{old, "new1", "new2", "new3"} {
		if rec := get(t, h, "/article?key="+key); rec.Code != http.StatusOK {
			t.Errorf("/article?key=%s: status %d", key, rec.Code)
		}
	}
	if rec := get(t, h, "/article?key=rejected"); rec.Code != http.StatusNotFound {
		t.Errorf("/article?key=rejected: status %d, want 404", rec.Code)
	}
}

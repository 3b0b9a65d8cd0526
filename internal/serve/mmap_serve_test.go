package serve

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
)

// mappedFixtureStore writes the 4-article fixture corpus to a SCORP
// file and opens it through the zero-copy mapped loader.
func mappedFixtureStore(t *testing.T) *corpus.Store {
	t.Helper()
	b := corpus.NewBuilder()
	au, err := b.InternAuthor("au", "Author")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]corpus.ArticleID, 0, 4)
	for i, year := range []int{2000, 2005, 2010, 2015} {
		id, err := b.AddArticle(corpus.ArticleMeta{
			Key: string(rune('a' + i)), Title: "T", Year: year,
			Venue: corpus.NoVenue, Authors: []corpus.AuthorID{au},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, c := range [][2]int{{1, 0}, {2, 0}, {2, 1}, {3, 0}} {
		if err := b.AddCitation(ids[c[0]], ids[c[1]]); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "corpus.scorp")
	if err := corpus.WriteSCORPFile(path, b.Freeze()); err != nil {
		t.Fatal(err)
	}
	mapped, err := corpus.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	return mapped
}

// TestServeFromMappedCorpus boots a server over an OpenMapped store
// and checks the endpoints answer from mapped memory and the
// load-mode observability flips to mmap.
func TestServeFromMappedCorpus(t *testing.T) {
	mapped := mappedFixtureStore(t)
	defer mapped.Close()
	srv, err := NewWithConfig(mapped, Config{Options: core.DefaultOptions(), CorpusLoadSeconds: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	if rec := get(t, h, "/top"); rec.Code != http.StatusOK {
		t.Fatalf("/top status = %d: %s", rec.Code, rec.Body)
	}
	stats := get(t, h, "/stats").Body.String()
	for _, want := range []string{
		`"corpus_load_mode":"mmap"`,
		`"corpus_load_seconds":0.125`,
	} {
		if !strings.Contains(stats, want) {
			t.Errorf("/stats missing %s: %s", want, stats)
		}
	}
	if strings.Contains(stats, `"corpus_mmap_bytes":0`) {
		t.Errorf("/stats reports zero mapped bytes for a mapped corpus: %s", stats)
	}
	metrics := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`sarserve_corpus_load_mode{mode="mmap"} 1`,
		`sarserve_corpus_load_mode{mode="heap"} 0`,
		"sarserve_corpus_load_seconds 0.125",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "sarserve_corpus_mmap_bytes 0\n") {
		t.Error("mmap bytes gauge is zero for a mapped corpus")
	}
	// After an ingest the serving store is a re-frozen heap copy; the
	// load-mode gauge must follow the generation.
	req := strings.NewReader(`{"id":"new1","year":2016,"refs":["a"]}`)
	if _, err := srv.Ingest(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	metrics = get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`sarserve_corpus_load_mode{mode="mmap"} 0`,
		`sarserve_corpus_load_mode{mode="heap"} 1`,
		"sarserve_corpus_mmap_bytes 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics after ingest missing %q", want)
		}
	}
}

// TestMappedCloseDuringHotSwap is the lifetime race test: readers
// hammer endpoints that dereference mapped column memory while
// ingests hot-swap generations away and the boot handle is closed
// mid-flight. The generation refcount must keep the mapping alive
// until the last in-flight reader releases it — under -race and with
// any use-after-munmap crashing outright, survival is the assertion.
func TestMappedCloseDuringHotSwap(t *testing.T) {
	mapped := mappedFixtureStore(t)
	srv, err := New(mapped, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// /top and /article read keys and titles out of the
				// (possibly mapped) arena; /stats reads the columns'
				// shapes and the load-mode fields.
				for _, path := range []string{"/top", "/article?key=a", "/stats"} {
					if rec := get(t, h, path); rec.Code != http.StatusOK {
						t.Errorf("%s status = %d during swap", path, rec.Code)
						return
					}
				}
			}
		}()
	}
	// Swap generations repeatedly; the first swap retires the mapped
	// store's generation (re-frozen corpora are heap-backed), so the
	// mapping's fate is decided entirely by reader refcounts.
	for i := 0; i < 5; i++ {
		delta := fmt.Sprintf(`{"id":"new%d","year":2016,"refs":["a"]}`, i)
		if _, err := srv.Ingest(context.Background(), strings.NewReader(delta)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Drop the boot handle's own reference while readers are
			// still in flight on the retired mapped generation.
			if err := mapped.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if v := srv.Version(); v != 6 {
		t.Errorf("version after 5 ingests = %d, want 6", v)
	}
	if got := get(t, h, "/top"); got.Code != http.StatusOK {
		t.Errorf("/top after swaps = %d", got.Code)
	}
}
